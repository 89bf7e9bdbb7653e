//! Nonblocking ingest front-end: accept loop, poller threads, the ingest
//! queue, and the engine pump.
//!
//! ## Division of labor
//!
//! - **Pollers** ([`poller_loop`]) own the sockets. Each poller steps its
//!   connections in a loop: flush the outbox, advance the handshake, and
//!   then by role. A producer's [`FrameReader`] reads once and decodes
//!   everything that read buffered, so a readiness event costs one `read`
//!   however many frames it delivered; a partial frame survives in the
//!   reader between steps. Decoded frames are validated for
//!   per-connection seq order at the boundary and staged on the
//!   connection, and the step hands the staged batch to the ingest queue
//!   in one lock. A poller never touches the engine: it checks a
//!   producer's `Hello` against the plan, then stages an
//!   [`IngestOp::Attach`] ahead of the connection's frames, and a producer
//!   that leaves stages an [`IngestOp::Detach`] behind them. A subscriber
//!   whose outbox has drained takes the next batch of shared output slabs
//!   from its queue ([`step_subscriber`]).
//! - **The ingest queue** ([`IngestQueue`]) decouples socket readiness
//!   from the engine. It is one FIFO, so frames reach the engine in
//!   hand-off order and no port can starve another. It is hard-bounded:
//!   a hand-off pushes only what fits, the rest stays staged in order, and
//!   a connection with staged frames is not read again until they are
//!   through — which turns into TCP backpressure on the producer.
//! - **The pump** ([`pump_loop`]) is the engine thread and the engine's
//!   only owner. It sleeps until work arrives or a port's idle deadline
//!   (arrival + `idle_timeout`) passes, then runs one section inline on
//!   the serial executor: every drained item is applied in order (an
//!   attach answers the producer's `Hello`; one executor call per frame,
//!   so a refusal lands on the connection that sent it), every due port
//!   gets its synthesized heartbeat, then one `advance_clock` to the
//!   section's max timestamp and one run-to-quiescence. The sink only
//!   stages the run's output slabs; the pump then publishes them to every
//!   subscriber queue in one lock per queue. Outcomes are routed back per
//!   connection: one cumulative [`Frame::Ack`] (or an attributed
//!   [`Frame::Error`]) per connection per section, pushed to the
//!   connection's outbox and flushed by its poller. At shutdown the pump
//!   runs the final drain itself, publishes its outputs and returns its
//!   report.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use millstream_metrics::LatencyRecorder;
use millstream_types::{Result, Schema, TimeDelta, Timestamp, Tuple};

use crate::frame::{ErrorCode, Frame, FrameReader, ReadOutcome, Role, PROTOCOL_VERSION};

use super::{
    pacing_window, pump_add, Engine, PressureLevel, Section, ServerReport, Shared, SubQueue,
    HANDSHAKE_DEADLINE,
};

/// Frames a poller reads from one connection per step before yielding to
/// the next connection (fairness under flood).
const FRAMES_PER_STEP: usize = 64;

/// Bound on the ingest queue; a full queue stops reads from producer
/// connections (TCP backpressure) rather than queueing unbounded input.
/// The ring is allocated once at this size (672 KiB), so its footprint
/// does not depend on how deep a burst happened to get before the pump
/// caught up.
const QUEUE_CAP: usize = 4096;

/// Items the pump drains into one engine section.
const PUMP_BATCH: usize = 1024;

/// Output slabs a poller moves from a subscriber's queue into its outbox
/// per step. Only an empty outbox is refilled, so at most one batch sits
/// outside the queue, and the queue stays the bound that
/// [`super::OverflowPolicy`] acts on.
const SUB_BATCH: usize = 64;

/// Wire-arrival instants the pump keeps waiting for a sink delivery
/// (256 KiB, allocated once). An arrival the query filtered out is never
/// matched; past this bound the oldest one ages out unrecorded, so the
/// ledger — and with it the server's resident set — does not grow with
/// the tuples processed.
const ARRIVAL_LEDGER_CAP: usize = 1 << 14;

/// How long a poller with connections parks after a sweep that made no
/// progress; one that made progress re-polls immediately, and one with no
/// connections parks until a new connection or shutdown wakes it.
const PARK: Duration = Duration::from_micros(500);

/// The cross-thread half of one connection: the pump pushes outcome
/// frames here, the owning poller flushes them to the socket.
pub(super) struct ConnShared {
    outbox: Mutex<Outbox>,
    /// Pump → poller: a terminal error frame is queued; flush, then drop
    /// the connection. Also read by the pump to skip queued items from a
    /// connection that already failed.
    dead: std::sync::atomic::AtomicBool,
    /// Items staged or queued but not yet resolved by the pump (answered,
    /// acked or errored).
    inflight: AtomicU64,
    /// Last pressure level announced to this producer
    /// ([`PressureLevel::as_u8`]); pacing frames go out on change only.
    sent_level: AtomicU8,
    /// Index of the poller that owns the socket (for pump wakeups).
    poller: usize,
}

#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    sent: usize,
}

/// What one outbox flush accomplished.
struct FlushOutcome {
    /// The outbox is fully drained.
    empty: bool,
    /// At least one byte moved to the socket.
    wrote: bool,
}

impl ConnShared {
    fn new(poller: usize) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            outbox: Mutex::new(Outbox::default()),
            dead: std::sync::atomic::AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            sent_level: AtomicU8::new(PressureLevel::Normal.as_u8()),
            poller,
        })
    }

    /// Encodes one frame straight into the outbox for the poller to write.
    /// Encoding failures mark the connection dead (nothing sensible can be
    /// written after them) and leave the outbox as it was.
    fn push_frame(&self, frame: &Frame) {
        if frame
            .encode_into(&mut self.outbox.lock().unwrap().buf)
            .is_err()
        {
            self.dead.store(true, Ordering::SeqCst);
        }
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&self, stream: &mut TcpStream) -> std::io::Result<FlushOutcome> {
        use std::io::Write;
        let mut o = self.outbox.lock().unwrap();
        let mut wrote = false;
        while o.sent < o.buf.len() {
            let pending = &o.buf[o.sent..];
            match stream.write(pending) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket closed",
                    ))
                }
                Ok(n) => {
                    o.sent += n;
                    wrote = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let empty = o.sent == o.buf.len();
        if empty {
            o.buf.clear();
            o.sent = 0;
        }
        Ok(FlushOutcome { empty, wrote })
    }
}

/// Connection lifecycle on a poller.
enum Phase {
    Handshake {
        deadline: Instant,
    },
    Producer {
        port_idx: usize,
        /// Columns of the port's schema: every data row must carry
        /// exactly this many.
        width: usize,
    },
    /// A producer that left: its `Detach` is staged, and the connection
    /// retires once that is handed off.
    Detaching,
    Subscriber {
        /// Broadcast slot, released at retire.
        slot: usize,
        queue: Arc<SubQueue>,
        /// Cumulative drops already declared to this subscriber; a larger
        /// count goes out as a Feedback notice *before* the next Output,
        /// so the subscriber can always reconcile received + dropped =
        /// delivered.
        announced: u64,
    },
}

/// One poller-owned connection.
pub(super) struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    shared: Arc<ConnShared>,
    phase: Phase,
    last_seq: Option<u64>,
    /// Terminal frames queued: retire once the outbox is flushed and the
    /// pump has resolved every queued item.
    closing: bool,
    /// Decoded frames not yet handed to the ingest queue, in arrival
    /// order.
    staged: Vec<IngestItem>,
}

impl Conn {
    fn new(stream: TcpStream, poller: usize) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            shared: ConnShared::new(poller),
            phase: Phase::Handshake {
                deadline: Instant::now() + HANDSHAKE_DEADLINE,
            },
            last_seq: None,
            closing: false,
            staged: Vec::new(),
        }
    }

    /// Stages one item for the pump, stamped with its arrival. The caller
    /// counts it in `inflight`: a producer step counts its frames at once.
    fn stage(&mut self, port_idx: usize, op: IngestOp) {
        self.staged.push(IngestItem {
            conn: Arc::clone(&self.shared),
            port_idx,
            arrival: Instant::now(),
            op,
        });
    }
}

/// One item awaiting its engine section, with the connection and port it
/// belongs to.
pub(super) struct IngestItem {
    conn: Arc<ConnShared>,
    port_idx: usize,
    /// When the poller staged it: a frame's wire arrival.
    arrival: Instant,
    op: IngestOp,
}

/// What an [`IngestItem`] asks of the engine. Everything a producer
/// connection changes there is one of these, applied in hand-off order.
pub(super) enum IngestOp {
    /// A producer's `Hello` passed the handshake checks: one more producer
    /// on the port, answered with a `HelloAck`.
    Attach,
    Data {
        seq: u64,
        tuple: Tuple,
    },
    Heartbeat {
        seq: u64,
        ts: Timestamp,
    },
    Close {
        seq: u64,
    },
    /// The producer connection left: one producer fewer on the port.
    Detach,
}

/// The bounded FIFO between the pollers and the pump, plus the monotonic
/// enqueue/process counters shutdown uses as a drain barrier.
pub(super) struct IngestQueue {
    items: Mutex<VecDeque<IngestItem>>,
    queued: AtomicU64,
    processed: AtomicU64,
    gate: Mutex<()>,
    cv: Condvar,
}

impl IngestQueue {
    pub(super) fn new() -> IngestQueue {
        IngestQueue {
            items: Mutex::new(VecDeque::with_capacity(QUEUE_CAP)),
            queued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Moves as many `staged` items as the queue has room for onto it, in
    /// order, under one lock; the rest stay staged. Returns how many moved.
    /// The bound is hard, so the ring never grows past the capacity it was
    /// allocated with.
    fn push(&self, staged: &mut Vec<IngestItem>) -> usize {
        let mut q = self.items.lock().unwrap();
        let fit = QUEUE_CAP.saturating_sub(q.len()).min(staged.len());
        q.extend(staged.drain(..fit));
        drop(q);
        self.queued.fetch_add(fit as u64, Ordering::SeqCst);
        fit
    }

    /// Wakes the pump. The gate lock pairs with [`IngestQueue::wait`]'s
    /// predicate check so a push (or the final drain's flag) between check
    /// and sleep cannot be missed.
    pub(super) fn notify(&self) {
        let _g = self.gate.lock().unwrap();
        self.cv.notify_one();
    }

    /// Sleeps until work is pending, `stop` is set, or `until` passes;
    /// with no `until` the sleep is untimed.
    fn wait(&self, stop: &AtomicBool, until: Option<Instant>) {
        let g = self.gate.lock().unwrap();
        if self.pending() > 0 || stop.load(Ordering::SeqCst) {
            return;
        }
        match until {
            Some(t) => {
                let timeout = t.saturating_duration_since(Instant::now());
                drop(self.cv.wait_timeout(g, timeout));
            }
            None => drop(self.cv.wait(g)),
        }
    }

    /// Items enqueued but not yet resolved by the pump.
    pub(super) fn pending(&self) -> u64 {
        self.queued
            .load(Ordering::SeqCst)
            .saturating_sub(self.processed.load(Ordering::SeqCst))
    }

    /// Pops up to `cap` items in hand-off order onto `out`.
    fn drain(&self, cap: usize, out: &mut Vec<IngestItem>) {
        let mut q = self.items.lock().unwrap();
        let take = q.len().min(cap);
        out.extend(q.drain(..take));
    }

    fn mark_processed(&self, n: u64) {
        self.processed.fetch_add(n, Ordering::SeqCst);
    }
}

/// The poller pool: per-poller injection queues for fresh connections and
/// thread handles for wakeups.
pub(super) struct IoPool {
    injectors: Vec<Mutex<Vec<Conn>>>,
    wakers: Mutex<Vec<Option<Thread>>>,
    next: AtomicUsize,
}

impl IoPool {
    pub(super) fn new(threads: usize) -> IoPool {
        let threads = threads.max(1);
        IoPool {
            injectors: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            wakers: Mutex::new(vec![None; threads]),
            next: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        self.injectors.len()
    }

    fn register_waker(&self, idx: usize, thread: Thread) {
        self.wakers.lock().unwrap()[idx] = Some(thread);
    }

    fn next_index(&self) -> usize {
        self.next.fetch_add(1, Ordering::SeqCst) % self.injectors.len()
    }

    fn assign(&self, conn: Conn) {
        let idx = conn.shared.poller;
        self.injectors[idx].lock().unwrap().push(conn);
        self.wake(idx);
    }

    fn drain(&self, idx: usize) -> Vec<Conn> {
        std::mem::take(&mut *self.injectors[idx].lock().unwrap())
    }

    fn wake(&self, idx: usize) {
        if let Some(t) = self.wakers.lock().unwrap().get(idx).and_then(Clone::clone) {
            t.unpark();
        }
    }

    pub(super) fn wake_all(&self) {
        for t in self.wakers.lock().unwrap().iter().flatten() {
            t.unpark();
        }
    }
}

pub(super) fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.stats.connections.fetch_add(1, Ordering::SeqCst);
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            continue;
        }
        shared.stats.conns_active.fetch_add(1, Ordering::SeqCst);
        let idx = shared.pool.next_index();
        shared.pool.assign(Conn::new(stream, idx));
    }
}

/// What one connection step decided.
enum Step {
    Keep,
    Retire,
}

pub(super) fn poller_loop(shared: &Arc<Shared>, idx: usize) {
    // Registered before the first drain: a connection assigned earlier is
    // picked up by that drain, one assigned later unparks this thread, so
    // the untimed park below cannot miss one.
    shared.pool.register_waker(idx, std::thread::current());
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        conns.extend(shared.pool.drain(idx));
        if shared.terminate.load(Ordering::SeqCst) {
            // The pump is gone: nothing is staged for it any more.
            for c in conns.drain(..) {
                retire_conn(shared, &c);
            }
            for c in shared.pool.drain(idx) {
                retire_conn(shared, &c);
            }
            return;
        }
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match step_conn(shared, &mut conns[i], &mut progressed) {
                Step::Retire if detached(shared, &mut conns[i], &mut progressed) => {
                    let c = conns.swap_remove(i);
                    retire_conn(shared, &c);
                    progressed = true;
                }
                _ => i += 1,
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) && conns.is_empty() {
            // No new connections arrive after shutdown (the accept loop
            // has exited), so an empty poller is done.
            return;
        }
        if progressed {
            continue;
        }
        if conns.is_empty() {
            // `assign` and `wake_all` unpark us; an unpark that lands
            // before this call makes it return at once.
            std::thread::park();
        } else {
            std::thread::park_timeout(PARK);
        }
    }
}

/// Whether a retiring connection may leave its poller now. A producer
/// first stages its `Detach` behind its last frames, and leaves once that
/// is handed off — so the pump detaches it only after applying them.
fn detached(shared: &Arc<Shared>, c: &mut Conn, progressed: &mut bool) -> bool {
    if let Phase::Producer { port_idx, .. } = c.phase {
        c.stage(port_idx, IngestOp::Detach);
        c.shared.inflight.fetch_add(1, Ordering::SeqCst);
        c.phase = Phase::Detaching;
    }
    hand_off(shared, c, progressed)
}

/// Bookkeeping when a connection leaves its poller for good.
fn retire_conn(shared: &Arc<Shared>, c: &Conn) {
    match c.phase {
        Phase::Handshake { .. } => {}
        Phase::Producer { .. } | Phase::Detaching => {
            shared.active_producers.fetch_sub(1, Ordering::SeqCst);
        }
        Phase::Subscriber { slot, .. } => shared.broadcast.unsubscribe(slot),
    }
    shared.stats.conns_active.fetch_sub(1, Ordering::SeqCst);
}

fn step_conn(shared: &Arc<Shared>, c: &mut Conn, progressed: &mut bool) -> Step {
    if let Phase::Detaching = c.phase {
        return Step::Retire;
    }
    // Frames a producer already decoded reach the ingest queue before
    // anything else happens to the connection, retirement included.
    let handed_off = hand_off(shared, c, progressed);
    let flushed = match c.shared.flush(&mut c.stream) {
        Ok(f) => f,
        // Peer went away mid-write; nothing left to deliver.
        Err(_) if handed_off => return Step::Retire,
        Err(_) => return Step::Keep,
    };
    if flushed.wrote {
        *progressed = true;
    }
    if c.shared.dead.load(Ordering::SeqCst) || c.closing {
        // Terminal: a Bye/Error is (or will be) queued. Retire once every
        // decoded frame is resolved by the pump and the outbox is drained,
        // so acks for earlier frames still reach the peer first.
        let resolved = c.shared.inflight.load(Ordering::SeqCst) == 0;
        return if resolved && flushed.empty {
            Step::Retire
        } else {
            Step::Keep
        };
    }
    match c.phase {
        Phase::Handshake { deadline } => step_handshake(shared, c, deadline, progressed),
        // Queue backpressure: read nothing more until the staged frames
        // are through, so the producer's TCP window (not our memory)
        // absorbs the flood.
        Phase::Producer { .. } if !handed_off => Step::Keep,
        Phase::Producer { port_idx, width } => {
            step_producer(shared, c, port_idx, width, progressed)
        }
        Phase::Subscriber { .. } if !flushed.empty => Step::Keep,
        Phase::Subscriber { .. } => step_subscriber(shared, c, progressed),
        Phase::Detaching => Step::Retire,
    }
}

/// Moves the connection's staged frames onto the ingest queue — one lock,
/// one notify — as far as the queue has room. Returns whether nothing is
/// left staged.
fn hand_off(shared: &Arc<Shared>, c: &mut Conn, progressed: &mut bool) -> bool {
    if c.staged.is_empty() {
        return true;
    }
    if shared.queue.push(&mut c.staged) > 0 {
        *progressed = true;
        shared.queue.notify();
    }
    c.staged.is_empty()
}

fn step_handshake(
    shared: &Arc<Shared>,
    c: &mut Conn,
    deadline: Instant,
    progressed: &mut bool,
) -> Step {
    if shared.shutdown.load(Ordering::SeqCst) || Instant::now() > deadline {
        c.shared.push_frame(&Frame::Bye);
        c.closing = true;
        *progressed = true;
        return Step::Keep;
    }
    let frame = match c.reader.poll(&mut c.stream) {
        Ok(ReadOutcome::Frame(f)) => f,
        Ok(ReadOutcome::Timeout) => return Step::Keep,
        Ok(ReadOutcome::Eof) => return Step::Retire,
        Err(e) => {
            c.shared.push_frame(&Frame::Error {
                code: ErrorCode::Protocol,
                message: e.to_string(),
            });
            c.closing = true;
            *progressed = true;
            return Step::Keep;
        }
    };
    *progressed = true;
    let Frame::Hello {
        version,
        role,
        stream: stream_name,
        schema,
        resume_hint: _,
    } = frame
    else {
        c.shared.push_frame(&Frame::Error {
            code: ErrorCode::Protocol,
            message: "expected HELLO as the first frame".into(),
        });
        c.closing = true;
        return Step::Keep;
    };
    if version != PROTOCOL_VERSION {
        c.shared.push_frame(&Frame::Error {
            code: ErrorCode::Unsupported,
            message: format!(
                "protocol version {version} unsupported; server speaks {PROTOCOL_VERSION}"
            ),
        });
        c.closing = true;
        return Step::Keep;
    }
    match role {
        Role::Subscriber => {
            // This poller owns the socket from here on: it is the thread
            // deliveries wake.
            let (slot, queue) = shared
                .broadcast
                .subscribe(shared.cfg.subscriber_queue, std::thread::current());
            c.shared.push_frame(&Frame::HelloAck {
                version: PROTOCOL_VERSION,
                schema: shared.output_schema.clone(),
                resume_ts: 0,
            });
            c.phase = Phase::Subscriber {
                slot,
                queue,
                announced: 0,
            };
            Step::Keep
        }
        Role::Producer => match check_producer(shared, &stream_name, schema.as_ref()) {
            Ok((port_idx, width)) => {
                // The pump attaches the producer and answers its Hello;
                // frames pipelined behind the Hello queue behind that.
                c.stage(port_idx, IngestOp::Attach);
                c.shared.inflight.fetch_add(1, Ordering::SeqCst);
                c.phase = Phase::Producer { port_idx, width };
                shared.active_producers.fetch_add(1, Ordering::SeqCst);
                Step::Keep
            }
            Err((code, message)) => {
                c.shared.push_frame(&Frame::Error { code, message });
                c.closing = true;
                Step::Keep
            }
        },
    }
}

/// Resolves the stream and checks the claimed schema against the plan;
/// returns the port index and its schema's width.
fn check_producer(
    shared: &Shared,
    stream_name: &str,
    claimed_schema: Option<&Schema>,
) -> std::result::Result<(usize, usize), (ErrorCode, String)> {
    let Some((idx, schema)) = shared.streams.get(stream_name) else {
        return Err((ErrorCode::Engine, format!("unknown stream `{stream_name}`")));
    };
    match claimed_schema {
        Some(claimed) if claimed != schema => Err((
            ErrorCode::Unsupported,
            format!("schema mismatch on `{stream_name}`: client {claimed}, server {schema}"),
        )),
        _ => Ok((*idx, schema.len())),
    }
}

/// Reads up to [`FRAMES_PER_STEP`] frames, validates their order and
/// row width and stages them, then hands the step's frames to the queue
/// at once. Runs only with nothing staged.
fn step_producer(
    shared: &Arc<Shared>,
    c: &mut Conn,
    port_idx: usize,
    width: usize,
    progressed: &mut bool,
) -> Step {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let verdict = loop {
        if c.staged.len() >= FRAMES_PER_STEP {
            break Step::Keep;
        }
        match c.reader.poll(&mut c.stream) {
            Ok(ReadOutcome::Frame(frame)) => {
                *progressed = true;
                let (seq, op) = match frame {
                    Frame::Data { seq, tuple } => (seq, IngestOp::Data { seq, tuple }),
                    Frame::Heartbeat { seq, ts } => (seq, IngestOp::Heartbeat { seq, ts }),
                    Frame::Close { seq } => (seq, IngestOp::Close { seq }),
                    Frame::Bye => {
                        c.closing = true;
                        break Step::Keep;
                    }
                    other => {
                        c.shared.push_frame(&Frame::Error {
                            code: ErrorCode::Protocol,
                            message: format!("unexpected frame {other:?} from a producer"),
                        });
                        c.closing = true;
                        break Step::Keep;
                    }
                };
                // Frame validation at the socket boundary: within one
                // connection the sequence must strictly increase, and a
                // data row must be as wide as its stream's schema.
                let violation = match &op {
                    _ if c.last_seq.is_some_and(|ls| seq <= ls) => Some(format!(
                        "frame order violation: seq {seq} after {} on the same connection",
                        c.last_seq.unwrap_or(0)
                    )),
                    IngestOp::Data { tuple, .. } if tuple.is_data() && tuple.width() != width => {
                        Some(format!(
                            "row width violation: seq {seq} carries {} column(s), the stream has {width}",
                            tuple.width()
                        ))
                    }
                    _ => None,
                };
                if let Some(message) = violation {
                    c.shared.push_frame(&Frame::Error {
                        code: ErrorCode::Protocol,
                        message,
                    });
                    c.closing = true;
                    break Step::Keep;
                }
                c.last_seq = Some(seq);
                c.stage(port_idx, op);
            }
            Ok(ReadOutcome::Timeout) => {
                if draining && c.staged.is_empty() && c.shared.inflight.load(Ordering::SeqCst) == 0
                {
                    // Shutdown drain complete: everything this producer
                    // sent is acked and nothing is left on the socket.
                    c.shared.push_frame(&Frame::Bye);
                    c.closing = true;
                    *progressed = true;
                }
                break Step::Keep;
            }
            Ok(ReadOutcome::Eof) => break Step::Retire,
            Err(e) => {
                c.shared.push_frame(&Frame::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                });
                c.closing = true;
                break Step::Keep;
            }
        }
    };
    if c.staged.is_empty() {
        return verdict;
    }
    c.shared
        .inflight
        .fetch_add(c.staged.len() as u64, Ordering::SeqCst);
    // A producer that hung up retires only once its last frames are
    // handed off.
    if hand_off(shared, c, progressed) {
        verdict
    } else {
        Step::Keep
    }
}

/// One step of a subscriber whose outbox has drained: check that the peer
/// is still there, then move the next batch of output slabs into the
/// outbox. Once the queue is empty and the stream has ended, the close
/// sequence follows the last slab: the final drop notice, then `Bye` — or,
/// after an [`super::OverflowPolicy::Disconnect`] cut-off, the
/// `Timestamp::MAX` mark and a structured Overflow error.
fn step_subscriber(shared: &Arc<Shared>, c: &mut Conn, progressed: &mut bool) -> Step {
    // A subscriber says nothing after its Hello: end of stream or a Bye
    // means it has gone, anything else breaks the protocol.
    let complaint = match c.reader.poll(&mut c.stream) {
        Ok(ReadOutcome::Timeout) => None,
        Ok(ReadOutcome::Eof | ReadOutcome::Frame(Frame::Bye)) => return Step::Retire,
        Ok(ReadOutcome::Frame(other)) => {
            Some(format!("unexpected frame {other:?} from a subscriber"))
        }
        Err(e) => Some(e.to_string()),
    };
    if let Some(message) = complaint {
        c.shared.push_frame(&Frame::Error {
            code: ErrorCode::Protocol,
            message,
        });
        c.closing = true;
        *progressed = true;
        return Step::Keep;
    }
    let Phase::Subscriber {
        queue, announced, ..
    } = &mut c.phase
    else {
        unreachable!("step_subscriber runs only on subscribers");
    };
    let mut sub = queue.state.lock().unwrap();
    let take = sub.buf.len().min(SUB_BATCH);
    if take > 0 && sub.dropped > *announced {
        *announced = sub.dropped;
        c.shared.push_frame(&Frame::Feedback {
            level: shared.broadcast.marks.classify(sub.buf.len()).as_u8(),
            window: 0,
            dropped: sub.dropped,
        });
    }
    if take > 0 {
        // The whole batch under one outbox lock. Each shared slab holds
        // the same bytes a per-subscriber `Frame::Output` encode would.
        let mut outbox = c.shared.outbox.lock().unwrap();
        for item in sub.buf.drain(..take) {
            outbox.buf.extend_from_slice(&item.bytes);
        }
    }
    let end = sub.buf.is_empty() && (sub.overflowed || sub.finished);
    if end {
        // Freeze the drop ledger at the moment the verdict is announced:
        // from here on `publish` treats this subscriber as gone (skip,
        // don't count), so the notice below is exact — every tuple before
        // the cut is delivered or declared, tuples after it are
        // post-subscription.
        sub.finished = true;
    }
    let (overflowed, dropped) = (sub.overflowed, sub.dropped);
    drop(sub);
    if take == 0 && !end {
        return Step::Keep;
    }
    if end {
        if dropped > *announced {
            c.shared.push_frame(&Frame::Feedback {
                level: PressureLevel::Critical.as_u8(),
                window: 0,
                dropped,
            });
        }
        if overflowed {
            // The fixed disconnect path: the final mark and a structured
            // error, never a bare socket close. The buffered prefix plus
            // the MAX mark keep the subscriber's progress contract intact.
            c.shared.push_frame(&Frame::Output {
                tuple: Tuple::punctuation(Timestamp::MAX),
            });
            c.shared.push_frame(&Frame::Error {
                code: ErrorCode::Overflow,
                message: format!(
                    "subscriber overflowed its bounded queue ({} tuples); {dropped} dropped",
                    shared.cfg.subscriber_queue
                ),
            });
        } else {
            c.shared.push_frame(&Frame::Bye);
        }
        c.closing = true;
    }
    *progressed = true;
    // Write now rather than on the next sweep, after every other
    // connection on this poller has had its turn.
    match c.shared.flush(&mut c.stream) {
        Ok(_) => Step::Keep,
        Err(_) => Step::Retire,
    }
}

/// The pump's per-section working set, allocated once and reused by every
/// section, and the latency recorder, which only the pump touches.
struct Pump {
    /// Items drained for the current section.
    batch: Vec<IngestItem>,
    /// One entry per connection in the section, in first-seen order.
    outcomes: Vec<Outcome>,
    /// Connection identity → its index in `outcomes`.
    index: HashMap<usize, usize>,
    /// Pollers to wake once the section's outcomes are queued.
    wake: Vec<bool>,
    /// Wire-arrival instants of data tuples that entered the graph but
    /// have not yet been matched to a sink delivery. Sink output is
    /// timestamp-ordered and producers send in timestamp order, so FIFO
    /// attribution pairs each delivery with (a close approximation of)
    /// its own arrival — giving true per-tuple wire→sink latency even
    /// when an operator holds tuples across many sections waiting for
    /// the frontier. Bounded: see `ARRIVAL_LEDGER_CAP`.
    awaiting_delivery: VecDeque<Instant>,
    latency: LatencyRecorder,
}

/// The engine thread. It wakes for two reasons only: work arrived, or the
/// earliest idle deadline the last section returned has passed. Once
/// shutdown asks for the final drain, it runs that and returns the
/// report.
pub(super) fn pump_loop(shared: &Arc<Shared>, mut eng: Engine) -> Result<ServerReport> {
    let mut next_due = None;
    let mut pump = Pump {
        batch: Vec::with_capacity(PUMP_BATCH),
        outcomes: Vec::new(),
        index: HashMap::new(),
        wake: vec![false; shared.pool.len()],
        awaiting_delivery: VecDeque::with_capacity(ARRIVAL_LEDGER_CAP),
        latency: LatencyRecorder::new(),
    };
    loop {
        if shared.queue.pending() == 0 {
            shared.queue.wait(&shared.final_drain, next_due);
        }
        if shared.final_drain.load(Ordering::SeqCst) {
            let report = eng.final_drain(shared.now_us(), pump.latency.summarize());
            // The drain's outputs go out even if the drain failed, and
            // before `Server::shutdown` queues the final mark behind them.
            shared.broadcast.publish();
            return report;
        }
        shared.queue.drain(PUMP_BATCH, &mut pump.batch);
        next_due = run_section(shared, &mut eng, &mut pump);
    }
}

/// Appends one arrival to the ledger; at [`ARRIVAL_LEDGER_CAP`] the oldest
/// ages out first, so the ledger never reallocates.
fn push_arrival(awaiting: &mut VecDeque<Instant>, arrival: Instant) {
    if awaiting.len() == ARRIVAL_LEDGER_CAP {
        awaiting.pop_front();
    }
    awaiting.push_back(arrival);
}

/// Matches every delivery since `before` with the oldest unmatched
/// arrival instant and records one wire→sink latency sample per tuple.
/// If the graph filtered tuples out, leftover arrivals age out unrecorded
/// once the ledger is full ([`ARRIVAL_LEDGER_CAP`]); deliveries beyond the
/// arrival ledger (only after such an age-out) are skipped rather than
/// misattributed.
fn record_deliveries(shared: &Shared, pump: &mut Pump, before: u64) {
    let delivered = shared.broadcast.delivered().saturating_sub(before);
    let matched = (delivered as usize).min(pump.awaiting_delivery.len());
    let now = Instant::now();
    for arrived in pump.awaiting_delivery.drain(..matched) {
        let elapsed = now.saturating_duration_since(arrived);
        pump.latency
            .record(TimeDelta::from_micros(elapsed.as_micros() as u64));
    }
}

/// Per-connection outcome of one engine section.
struct Outcome {
    conn: Arc<ConnShared>,
    port_idx: usize,
    /// Highest seq absorbed this section — acked cumulatively.
    ack_seq: Option<u64>,
    /// Terminal error attributed to this connection.
    fatal: Option<(ErrorCode, String)>,
    /// Items of this connection resolved this section.
    items: u64,
}

/// Runs one engine section: apply every drained item (possibly none) in
/// order, synthesize for every port past its idle deadline, advance the
/// clock once to the section max, run to quiescence once; then publish
/// the run's outputs to the subscribers, record latency and push one
/// cumulative ack — or one attributed error — per connection. Returns
/// the earliest idle deadline still ahead. Leaves every buffer of `pump`
/// but the arrival ledger empty for the next section.
///
/// Only a section that drained frames counts in `ingest_sections`, so
/// `frames_in / ingest_sections` stays the frames per section; one woken
/// by a deadline, an attach or a detach alone is not counted.
fn run_section(shared: &Arc<Shared>, eng: &mut Engine, pump: &mut Pump) -> Option<Instant> {
    let total = pump.batch.len() as u64;
    let stats = &shared.stats;
    let idle_timeout = shared.cfg.idle_timeout;
    let delivered_before = shared.broadcast.delivered();
    let now_us = shared.now_us();
    let mut section = Section::default();
    let mut frames = false;
    for IngestItem {
        conn,
        port_idx,
        arrival,
        op,
    } in pump.batch.drain(..)
    {
        let key = Arc::as_ptr(&conn) as usize;
        let oidx = *pump.index.entry(key).or_insert_with(|| {
            pump.outcomes.push(Outcome {
                conn: Arc::clone(&conn),
                port_idx,
                ack_seq: None,
                fatal: None,
                items: 0,
            });
            pump.outcomes.len() - 1
        });
        let out = &mut pump.outcomes[oidx];
        out.items += 1;
        let failed = out.fatal.is_some() || conn.dead.load(Ordering::SeqCst);
        frames |= !matches!(op, IngestOp::Attach | IngestOp::Detach);
        let (seq, applied) = match op {
            IngestOp::Attach => {
                let due = idle_timeout.map(|t| arrival + t);
                conn.push_frame(&eng.attach(port_idx, due, now_us));
                continue;
            }
            IngestOp::Detach => {
                // The connection has left its poller: nothing goes back.
                eng.detach(port_idx, now_us);
                continue;
            }
            // The connection already failed; frames after the failing one
            // are dropped, exactly like the old synchronous close.
            _ if failed => continue,
            IngestOp::Data { seq, tuple } => {
                (seq, eng.ingest(stats, port_idx, tuple, &mut section))
            }
            IngestOp::Heartbeat { seq, ts } => {
                (seq, eng.heartbeat(stats, port_idx, ts, &mut section))
            }
            IngestOp::Close { seq } => (seq, eng.close(port_idx, &mut section)),
        };
        pump_add(&stats.frames_in);
        let port = &mut eng.ports[port_idx];
        port.idle_due = idle_timeout.map(|t| arrival + t);
        port.idle.set_idle(now_us, false);
        match applied {
            Ok(entered_graph) => {
                out.ack_seq = Some(seq);
                if entered_graph {
                    push_arrival(&mut pump.awaiting_delivery, arrival);
                }
            }
            Err((code, error)) => {
                out.fatal = Some((code, error.to_string()));
                conn.dead.store(true, Ordering::SeqCst);
            }
        }
    }
    if frames {
        pump_add(&stats.ingest_sections);
    }
    let next_due = eng.synthesize_due(stats, idle_timeout, now_us, &mut section);
    if section.run {
        eng.advance_clock(section.clock);
        if let Err(e) = eng.run() {
            // A failed run cannot be pinned on one frame: it is attributed
            // to every connection that contributed to the section, and
            // nothing in it is acked.
            for out in pump.outcomes.iter_mut() {
                if out.fatal.is_none() {
                    out.fatal = Some((ErrorCode::Engine, e.to_string()));
                    out.conn.dead.store(true, Ordering::SeqCst);
                }
                out.ack_seq = None;
            }
        }
    }
    // The section's outputs go out once, after the run — a failed or
    // panicked run included, since what it output before the failure was
    // delivered — and before the subscriber queues are read for pressure.
    shared.broadcast.publish();
    let level = match shared.cfg.feedback {
        Some(marks) => marks
            .classify(eng.exec.graph().max_input_backlog())
            .max(shared.broadcast.pressure()),
        None => PressureLevel::Normal,
    };
    // Wire-arrival → sink-delivery latency, one sample per tuple
    // this section published.
    record_deliveries(shared, pump, delivered_before);
    pump.index.clear();
    for out in pump.outcomes.drain(..) {
        if let Some(seq) = out.ack_seq {
            // Feedback before the ack: the producer learns its new window
            // before its pump refills the pipeline.
            let announced = level.as_u8();
            if shared.cfg.feedback.is_some()
                && out.conn.sent_level.swap(announced, Ordering::SeqCst) != announced
            {
                pump_add(&stats.feedback_frames);
                out.conn.push_frame(&Frame::Feedback {
                    level: announced,
                    window: pacing_window(level),
                    dropped: 0,
                });
            }
            out.conn.push_frame(&Frame::Ack {
                seq,
                high_water: eng
                    .source(out.port_idx)
                    .last_data_ts
                    .map_or(0, Timestamp::as_micros),
            });
        }
        if let Some((code, message)) = out.fatal {
            out.conn.push_frame(&Frame::Error { code, message });
        }
        out.conn.inflight.fetch_sub(out.items, Ordering::SeqCst);
        pump.wake[out.conn.poller] = true;
    }
    shared.queue.mark_processed(total);
    for (idx, w) in pump.wake.iter_mut().enumerate() {
        if std::mem::take(w) {
            shared.pool.wake(idx);
        }
    }
    next_due
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A query that filters tuples out leaves their arrivals unmatched for
    /// the life of the server; the ledger must hold its size — no growth,
    /// no reallocation — and keep the newest arrivals.
    #[test]
    fn arrival_ledger_is_bounded_and_never_reallocates() {
        let mut ledger = VecDeque::with_capacity(ARRIVAL_LEDGER_CAP);
        let cap = ledger.capacity();
        let first = Instant::now();
        push_arrival(&mut ledger, first);
        for _ in 0..3 * ARRIVAL_LEDGER_CAP {
            push_arrival(&mut ledger, first + Duration::from_secs(1));
        }
        assert_eq!(ledger.len(), ARRIVAL_LEDGER_CAP);
        assert_eq!(ledger.capacity(), cap);
        assert!(ledger.front().is_some_and(|&a| a > first));
    }

    fn staged(conn: &Arc<ConnShared>, seqs: std::ops::Range<u64>) -> Vec<IngestItem> {
        seqs.map(|seq| IngestItem {
            conn: Arc::clone(conn),
            port_idx: 0,
            arrival: Instant::now(),
            op: IngestOp::Close { seq },
        })
        .collect()
    }

    fn seqs(items: &[IngestItem]) -> Vec<u64> {
        items
            .iter()
            .map(|it| match it.op {
                IngestOp::Close { seq } => seq,
                _ => unreachable!("only closes are staged here"),
            })
            .collect()
    }

    /// A batched hand-off pushes only what fits: the queue stops at
    /// `QUEUE_CAP` without its ring reallocating, and the rest stays
    /// staged, in order, for the next push. Staged items from two
    /// connections, handed off alternately, drain in hand-off order.
    #[test]
    fn batched_hand_off_keeps_the_shard_bound_hard() {
        let queue = IngestQueue::new();
        let ring_capacity = queue.items.lock().unwrap().capacity();
        let conn = ConnShared::new(0);
        let mut filler = staged(&conn, 0..(QUEUE_CAP - 30) as u64);
        assert_eq!(queue.push(&mut filler), QUEUE_CAP - 30);

        let mut batch = staged(&conn, 10_000..10_100);
        assert_eq!(queue.push(&mut batch), 30);
        assert_eq!(queue.items.lock().unwrap().len(), QUEUE_CAP);
        assert_eq!(queue.items.lock().unwrap().capacity(), ring_capacity);
        assert_eq!(queue.pending(), QUEUE_CAP as u64);
        assert_eq!(seqs(&batch), (10_030..10_100).collect::<Vec<_>>());
        assert_eq!(queue.push(&mut batch), 0, "a full queue takes nothing");

        let mut out = Vec::new();
        queue.drain(QUEUE_CAP, &mut out);
        assert_eq!(out.len(), QUEUE_CAP);
        assert_eq!(
            seqs(&out[QUEUE_CAP - 30..]),
            (10_000..10_030).collect::<Vec<_>>()
        );
        queue.mark_processed(out.len() as u64);

        assert_eq!(queue.push(&mut batch), 70);
        assert!(batch.is_empty());
        out.clear();
        queue.drain(PUMP_BATCH, &mut out);
        assert_eq!(seqs(&out), (10_030..10_100).collect::<Vec<_>>());
        queue.mark_processed(out.len() as u64);

        let other = ConnShared::new(1);
        for round in [1..3, 3..4] {
            queue.push(&mut staged(&conn, round.clone()));
            queue.push(&mut staged(&other, round.start + 100..round.end + 100));
        }
        out.clear();
        queue.drain(PUMP_BATCH, &mut out);
        assert_eq!(seqs(&out), vec![1, 2, 101, 102, 3, 103]);
    }
}
