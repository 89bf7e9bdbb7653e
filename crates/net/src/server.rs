//! The `msq serve` engine host: a TCP server that runs one planned query
//! and exchanges [`Frame`]s with many concurrent clients.
//!
//! ## Threading model
//!
//! One accept thread (`msq-accept`), a **fixed pool of nonblocking poller
//! threads** (`msq-poll-N`, [`ServerConfig::io_threads`]) and one **ingest
//! pump** thread (`msq-pump`), which is also the engine thread: the planned
//! query is one connected component, so it runs on a serial
//! [`Executor`] inline in the pump — the paper's §3 model, one thread
//! walking one query graph. Pollers own every socket. Each producer's
//! [`FrameReader`] reads once per readiness event and decodes every frame
//! that read buffered (partial frames survive between polls); the poller
//! validates frame order at the socket boundary and hands each step's
//! frames to the one bounded ingest queue in one lock. The pump drains
//! whole batches in hand-off order and enters the engine **once per
//! batch** — `{ingest*, advance clock, run-to-quiescence}` — instead of
//! once per frame, so the engine critical section is amortized across
//! every frame that arrived while the previous batch was running.
//! Cumulative [`Frame::Ack`]s (one per connection per batch, carrying the
//! final `high_water`) and per-producer error attribution are preserved:
//! every queued item remembers its connection, so a frame the engine
//! refuses at ingest fails exactly the connection that sent it, and only
//! a failed run is charged to every connection with frames in the
//! section.
//!
//! Subscribers are poller-owned connections too, and fan-out is shared:
//! the sink encodes each output frame **once** into an `Arc<[u8]>` slab
//! that every subscriber queue references, so a thousand tails cost one
//! encode per tuple, not a thousand. A delivery into an empty subscriber
//! queue wakes the poller that owns the subscriber; the poller moves a
//! batch of slabs into the connection's outbox whenever the outbox has
//! drained, so a subscriber that stops reading holds up nothing but its
//! own queue, and shutdown drops it at the drain deadline.
//!
//! ## Backpressure and feedback punctuation
//!
//! A producer's unacked window (client side,
//! [`crate::client::StreamClient`]) plus the bounded ingest queue is the
//! only buffering between the socket and the engine, besides one poller
//! step's worth of decoded frames per connection: the queue takes
//! only what fits, and pollers stop reading a connection whose decoded
//! frames are still waiting for room, so TCP flow control pushes back
//! to the producer and the server never queues unbounded input. On top of
//! that, the pump translates queue pressure into [`Frame::Feedback`]
//! punctuation flowing *against* the data direction. After each engine
//! section it reads one number from the engine, the largest summed input
//! backlog of any operator
//! ([`millstream_exec::QueryGraph::max_input_backlog`]), and classifies it
//! against [`ServerConfig::feedback`]; the deepest subscriber queue is
//! classified against its own watermarks. When the higher level changes,
//! every producer connection in the section is told a new send window
//! before its ack, and the producer client narrows its pipeline
//! accordingly. The executor itself knows nothing of pressure.
//!
//! Subscribers get a bounded queue each. Under the default
//! [`OverflowPolicy::Shed`], a subscriber that stalls past its queue
//! capacity has its **oldest data tuples** shed — punctuation is never
//! shed, only coalesced — and the drop count travels to the subscriber as
//! cumulative [`Frame::Feedback`] notices, so loss is always declared,
//! never silent. Under [`OverflowPolicy::Disconnect`], the subscriber is
//! cut off instead — but only after a drop-count notice, the final
//! `Timestamp::MAX` punctuation and a structured
//! [`ErrorCode::Overflow`] error, never by a bare socket close.
//!
//! ## Idle connections and on-demand heartbeats
//!
//! The paper's on-demand ETS story is triggered here by *network
//! silence*: when a source stays quiet past
//! [`ServerConfig::idle_timeout`], the pump synthesizes a source heartbeat
//! at the server's stream time (the maximum data timestamp accepted so
//! far), unblocking IWP operators starved by the silent source. Synthesis
//! runs on **per-port deadlines** (last arrival + idle timeout), not
//! timers or a poll tick: the pump sleeps until the earliest one, fires
//! every due port in its next engine section and re-arms each one timeout
//! later — at most one wakeup per silent source per timeout. The wire
//! contract making that sound: a producer silent past the idle timeout
//! forfeits timestamps at or below the synthesized mark — later data under
//! the mark is dropped at the socket boundary (counted, and fatal under
//! `MILLSTREAM_CHECK=strict`).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use millstream_buffer::{punctuation_is_stale, CheckMode, OrderSentinel, SentinelStats};
use millstream_exec::{CostModel, EtsPolicy, ExecStats, Executor, NodeId, SourceId, VirtualClock};
use millstream_metrics::{IdleSummary, IdleTracker, LatencyRecorder, LatencySummary};
use millstream_ops::SinkCollector;
use millstream_query::plan_program;
use millstream_types::{Error, Result, Schema, TimeDelta, Timestamp, Tuple};

use crate::frame::{ErrorCode, Frame};

mod ingest;

/// Step budget per quiescence run; effectively unbounded for test-sized
/// streams while still catching a livelocked graph.
const RUN_BUDGET: u64 = 100_000_000;

/// How long connection handshakes may take before the connection is
/// dropped as dead.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see [`Server::addr`]).
    pub addr: String,
    /// The query program (DDL + one query) the server hosts.
    pub program: String,
    /// Has no effect, and never had one: the hosted program is one query,
    /// so one connected component, which runs on the pump thread. Still a
    /// field because `benchmark/` sets it.
    pub workers: usize,
    /// Nonblocking poller threads multiplexing every producer and
    /// subscriber socket.
    pub io_threads: usize,
    /// Has no effect: the pollers hand frames to one ingest queue, which
    /// the single pump drains in order. Still a field because `benchmark/`
    /// sets it.
    pub ingest_shards: usize,
    /// Network silence on a producer connection after which the server
    /// synthesizes a source heartbeat at stream time. `None` disables
    /// synthesis, and with it every pump wakeup that is not work arriving.
    pub idle_timeout: Option<Duration>,
    /// Bounded per-subscriber queue; [`ServerConfig::overflow`] decides
    /// what happens when a subscriber stalls past it.
    pub subscriber_queue: usize,
    /// Invariant-checking override; `None` inherits `MILLSTREAM_CHECK`.
    pub check: Option<CheckMode>,
    /// Producer pacing. `Some` (the default) classifies the engine's
    /// deepest operator input backlog against these watermarks after every
    /// engine section, maxes it with the deepest subscriber queue's level,
    /// and tells producers a smaller send window ([`Frame::Feedback`]
    /// frames) when the result is elevated; `None` disables pacing.
    pub feedback: Option<Watermarks>,
    /// What to do with a subscriber that overflows its bounded queue.
    pub overflow: OverflowPolicy,
}

/// How the server treats a subscriber that stalls past its bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Shed the subscriber's **oldest data tuples** to make room, keep the
    /// connection, and declare every drop via cumulative
    /// [`Frame::Feedback`] notices. Punctuation is never shed, only
    /// coalesced, so the subscriber's order/progress contract holds.
    #[default]
    Shed,
    /// Disconnect the subscriber — after a drop-count notice, the final
    /// `Timestamp::MAX` punctuation and a structured
    /// [`ErrorCode::Overflow`] error frame.
    Disconnect,
}

impl ServerConfig {
    /// A loopback config for `program` with test-friendly defaults.
    pub fn new(program: impl Into<String>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            program: program.into(),
            workers: 2,
            io_threads: 2,
            ingest_shards: 4,
            idle_timeout: None,
            subscriber_queue: 1024,
            check: None,
            feedback: Some(Watermarks::default()),
            overflow: OverflowPolicy::default(),
        }
    }
}

/// Aggregate counters, readable mid-run via [`Server::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (any role, including failed handshakes).
    pub connections: u64,
    /// Connections currently open (producers, subscribers, handshakes).
    pub conns_active: u64,
    /// Frames received from producers after handshake.
    pub frames_in: u64,
    /// Engine critical sections that applied producer frames; the
    /// batching win is `frames_in / ingest_sections` frames per section.
    /// A section that only fired idle deadlines is not counted.
    pub ingest_sections: u64,
    /// Data tuples ingested into the engine.
    pub tuples_ingested: u64,
    /// Explicit wire heartbeats forwarded to the engine.
    pub heartbeats_in: u64,
    /// Retransmitted duplicates dropped at the socket boundary
    /// (acked, never ingested).
    pub duplicates_dropped: u64,
    /// Data tuples dropped for violating a synthesized heartbeat's
    /// high-water mark (non-strict modes; strict kills the connection).
    pub rejected_tuples: u64,
    /// Heartbeats synthesized by the idle-timeout machinery.
    pub synthesized_heartbeats: u64,
    /// Tuples delivered by the sink (fanned out to subscribers).
    pub delivered: u64,
    /// Subscribers that overflowed their bounded queue (disconnected
    /// under [`OverflowPolicy::Disconnect`]; kept under `Shed`).
    pub subscriber_overflows: u64,
    /// Data tuples shed from subscriber queues under
    /// [`OverflowPolicy::Shed`] — every one declared to its subscriber
    /// via a [`Frame::Feedback`] drop notice.
    pub sub_shed: u64,
    /// Feedback pacing frames sent to producer connections.
    pub feedback_frames: u64,
}

/// Lock-free storage behind [`ServerStats`]: every counter the ingest
/// pump and the pollers touch lives here so [`Server::stats`] never has
/// to take the engine lock.
#[derive(Default)]
struct StatsCell {
    connections: AtomicU64,
    conns_active: AtomicU64,
    frames_in: AtomicU64,
    ingest_sections: AtomicU64,
    tuples_ingested: AtomicU64,
    heartbeats_in: AtomicU64,
    duplicates_dropped: AtomicU64,
    rejected_tuples: AtomicU64,
    synthesized_heartbeats: AtomicU64,
    feedback_frames: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self, broadcast: &Broadcast) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::SeqCst),
            conns_active: self.conns_active.load(Ordering::SeqCst),
            frames_in: self.frames_in.load(Ordering::SeqCst),
            ingest_sections: self.ingest_sections.load(Ordering::SeqCst),
            tuples_ingested: self.tuples_ingested.load(Ordering::SeqCst),
            heartbeats_in: self.heartbeats_in.load(Ordering::SeqCst),
            duplicates_dropped: self.duplicates_dropped.load(Ordering::SeqCst),
            rejected_tuples: self.rejected_tuples.load(Ordering::SeqCst),
            synthesized_heartbeats: self.synthesized_heartbeats.load(Ordering::SeqCst),
            delivered: broadcast.delivered(),
            subscriber_overflows: broadcast.overflows(),
            sub_shed: broadcast.shed_total(),
            feedback_frames: self.feedback_frames.load(Ordering::SeqCst),
        }
    }
}

/// Per-source accounting in the final [`ServerReport`].
#[derive(Debug, Clone)]
pub struct PortReport {
    /// Stream name from the program's DDL.
    pub stream: String,
    /// Data tuples ingested.
    pub ingested: u64,
    /// Duplicates dropped at the boundary.
    pub duplicates: u64,
    /// Tuples rejected below a synthesized high-water mark.
    pub rejected: u64,
    /// Heartbeats synthesized while the source was network-starved.
    pub synthesized: u64,
    /// Whether the source was closed (by a client or at shutdown).
    pub closed: bool,
    /// Network-idleness of the source over the server's wall-clock run.
    pub idle: IdleSummary,
}

/// Everything [`Server::shutdown`] hands back after the final drain.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Final aggregate counters.
    pub stats: ServerStats,
    /// Per-source accounting.
    pub ports: Vec<PortReport>,
    /// Wire-arrival → sink-delivery latency over all producer
    /// connections.
    pub latency: LatencySummary,
    /// Times the latency recorder was touched while the engine lock was
    /// held on the same thread — the recorder lives *outside* the engine
    /// critical section by design, so this must stay zero.
    pub latency_lock_violations: u64,
    /// Merged engine counters (includes `dropped_stale_heartbeats`).
    pub exec: ExecStats,
    /// Wire-level sentinel violations observed at socket boundaries.
    pub wire_sentinel_violations: u64,
    /// Deepest any subscriber queue ever got — with feedback shedding on,
    /// bounded by [`ServerConfig::subscriber_queue`] by construction.
    pub sub_peak_queue: usize,
    /// Idle-waiting fraction of the monitored IWP operator (the query's
    /// top union/join), if the plan has one.
    pub monitor_idle_fraction: Option<f64>,
}

/// Engine-side view of one planned source.
struct Port {
    source: SourceId,
    stream: String,
    schema: Schema,
    /// Wire-order sentinel for this source's socket boundary (punctuation
    /// dominance of late data against synthesized marks).
    sentinel: OrderSentinel,
    /// Highest data timestamp ingested (micros); wire-level dedup mark.
    data_hw: Option<u64>,
    /// Highest fresh heartbeat asserted (micros), synthesized or wire.
    punct_hw: Option<u64>,
    closed: bool,
    producers: usize,
    /// When the source counts as network-silent: the last frame's arrival
    /// (or the first attach) plus the idle timeout, moved one timeout on
    /// each time it fires. `None` without an idle timeout.
    idle_due: Option<Instant>,
    /// Network-idleness over the server's wall-clock timeline.
    idle: IdleTracker,
    ingested: u64,
    duplicates: u64,
    rejected: u64,
    synthesized: u64,
}

/// The engine and every piece of state its lock protects.
struct Engine {
    exec: Executor,
    ports: Vec<Port>,
    by_name: HashMap<String, usize>,
    output_schema: Schema,
    monitor: Option<NodeId>,
    /// Server stream time: max data timestamp accepted (micros).
    max_ts: u64,
}

impl Engine {
    /// Advances the executor clock to `ts` micros (the clock never goes
    /// backwards) and re-evaluates the monitored operator at the new time.
    fn advance_clock(&mut self, ts: u64) {
        self.exec.clock().advance_to(Timestamp::from_micros(ts));
        self.exec.refresh_idle();
    }

    /// Runs the graph to quiescence. An operator panic fails the section
    /// like any other engine error instead of unwinding through the pump
    /// and poisoning the engine lock (the panic hook has already printed
    /// the payload to stderr).
    fn run(&mut self) -> Result<()> {
        catch_unwind(AssertUnwindSafe(|| {
            self.exec.run_until_quiescent(RUN_BUDGET)
        }))
        .unwrap_or_else(|_| Err(Error::runtime("engine panicked while running the section")))
        .map(|_| ())
    }
}

thread_local! {
    /// Engine-lock nesting depth on this thread; [`Shared::record_latencies`]
    /// refuses (and counts) any recording attempted while it is nonzero.
    static ENGINE_LOCK_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Engine-lock guard that tracks per-thread nesting depth, so the latency
/// recorder discipline ("never under the engine lock") is checkable.
struct EngineGuard<'a> {
    guard: MutexGuard<'a, Engine>,
}

impl Deref for EngineGuard<'_> {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.guard
    }
}

impl DerefMut for EngineGuard<'_> {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.guard
    }
}

impl Drop for EngineGuard<'_> {
    fn drop(&mut self) {
        ENGINE_LOCK_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// One pre-encoded output frame in a subscriber queue. The slab is shared
/// (`Arc<[u8]>`) across every subscriber: the sink encodes once and each
/// tail writes the same bytes.
struct SubItem {
    bytes: Arc<[u8]>,
    /// Whether the encoded frame carries a data tuple (sheddable) or a
    /// punctuation mark (never shed, only coalesced).
    data: bool,
}

/// One subscriber's bounded output queue, shared between the delivering
/// sink (under the broadcast lock) and the poller that owns the
/// subscriber's socket.
struct SubQueue {
    state: Mutex<SubState>,
    cap: usize,
    /// The poller that owns the subscriber's socket, woken when the queue
    /// gains its first item and at the end of the stream.
    poller: Thread,
}

struct SubState {
    buf: VecDeque<SubItem>,
    /// Cumulative data tuples shed for this subscriber — the figure its
    /// [`Frame::Feedback`] drop notices carry.
    dropped: u64,
    /// Deepest the queue ever got.
    peak: usize,
    /// [`OverflowPolicy::Disconnect`] tripped: no further deliveries; the
    /// poller drains what is buffered and closes with the full
    /// notice/mark/error sequence.
    overflowed: bool,
    /// End of stream: no further deliveries. Set by
    /// [`Broadcast::finish`] once the final punctuation (if any) is
    /// queued, and by the poller when it announces the end.
    finished: bool,
}

impl SubQueue {
    /// Makes room for one more item on a full queue without ever losing
    /// a punctuation mark: the oldest **data** item is shed (counted);
    /// if the queue is all punctuation, the oldest mark is coalesced away
    /// (dominated by every newer mark behind it — semantically lossless).
    /// Returns how many data tuples were shed (0 or 1).
    fn make_room(st: &mut SubState) -> u64 {
        match st.buf.iter().position(|it| it.data) {
            Some(pos) => {
                st.buf.remove(pos);
                st.dropped += 1;
                1
            }
            None => {
                st.buf.pop_front();
                0
            }
        }
    }
}

/// Fan-out sink: the planned query delivers here, and every subscriber
/// gets a bounded view of the shared encoded stream.
#[derive(Clone)]
struct Broadcast {
    inner: Arc<Mutex<BroadcastState>>,
    policy: OverflowPolicy,
    /// Pressure classification for subscriber queue depth, sized to
    /// [`ServerConfig::subscriber_queue`].
    marks: Watermarks,
    /// Encode buffer reused across deliveries, so a delivered tuple costs
    /// one allocation: its shared slab.
    scratch: Vec<u8>,
}

struct BroadcastState {
    subs: Vec<Option<Arc<SubQueue>>>,
    delivered: u64,
    overflows: u64,
    shed: u64,
    peak: usize,
}

impl Broadcast {
    fn new(policy: OverflowPolicy, queue_cap: usize) -> Self {
        Broadcast {
            inner: Arc::new(Mutex::new(BroadcastState {
                subs: Vec::new(),
                delivered: 0,
                overflows: 0,
                shed: 0,
                peak: 0,
            })),
            policy,
            marks: Watermarks::new(queue_cap / 2, queue_cap.saturating_sub(queue_cap / 8)),
            scratch: Vec::new(),
        }
    }

    fn subscribe(&self, cap: usize, poller: Thread) -> (usize, Arc<SubQueue>) {
        let q = Arc::new(SubQueue {
            state: Mutex::new(SubState {
                buf: VecDeque::new(),
                dropped: 0,
                peak: 0,
                overflowed: false,
                finished: false,
            }),
            cap: cap.max(1),
            poller,
        });
        let mut st = self.inner.lock().unwrap();
        let slot = st.subs.len();
        st.subs.push(Some(Arc::clone(&q)));
        (slot, q)
    }

    fn unsubscribe(&self, slot: usize) {
        let mut st = self.inner.lock().unwrap();
        if let Some(q) = st.subs[slot].take() {
            let sub = q.state.lock().unwrap();
            st.peak = st.peak.max(sub.peak);
        }
    }

    /// Subscribers not yet unsubscribed.
    fn live(&self) -> usize {
        self.inner.lock().unwrap().subs.iter().flatten().count()
    }

    fn delivered(&self) -> u64 {
        self.inner.lock().unwrap().delivered
    }

    fn overflows(&self) -> u64 {
        self.inner.lock().unwrap().overflows
    }

    fn shed_total(&self) -> u64 {
        self.inner.lock().unwrap().shed
    }

    /// Deepest any subscriber queue ever got (departed ones included).
    fn peak(&self) -> usize {
        let st = self.inner.lock().unwrap();
        let mut peak = st.peak;
        for q in st.subs.iter().flatten() {
            peak = peak.max(q.state.lock().unwrap().peak);
        }
        peak
    }

    /// Current pressure from the deepest live subscriber queue — one of
    /// the two inputs to producer pacing (the other is the engine's
    /// deepest operator input backlog).
    fn pressure(&self) -> PressureLevel {
        let st = self.inner.lock().unwrap();
        let mut level = PressureLevel::Normal;
        for q in st.subs.iter().flatten() {
            level = level.max(self.marks.classify(q.state.lock().unwrap().buf.len()));
        }
        level
    }

    /// Queues the final `Timestamp::MAX` punctuation to **every** live
    /// subscriber — shedding a data tuple for room if it must (counted
    /// like any other shed) — and marks their streams finished. Even an
    /// overflowed subscriber gets the final mark: its poller drains the
    /// buffer before closing.
    fn finish(&self) {
        let Some(mark) = encode_output(Tuple::punctuation(Timestamp::MAX), &mut Vec::new()) else {
            return;
        };
        let mut st = self.inner.lock().unwrap();
        let mut shed = 0;
        for q in st.subs.iter().flatten() {
            let mut sub = q.state.lock().unwrap();
            // An overflowed (Disconnect-policy) subscriber synthesizes
            // its own final mark in its close sequence; queueing another
            // here would only duplicate it.
            if !sub.finished && !sub.overflowed {
                if sub.buf.len() >= q.cap {
                    shed += SubQueue::make_room(&mut sub);
                }
                sub.buf.push_back(SubItem {
                    bytes: Arc::clone(&mark),
                    data: false,
                });
                sub.peak = sub.peak.max(sub.buf.len());
            }
            sub.finished = true;
            q.poller.unpark();
        }
        st.shed += shed;
    }
}

/// Encodes one output frame into a shared slab, ready to fan out to every
/// subscriber tail. The frame is built in `scratch` (cleared first) and
/// copied once into the slab.
fn encode_output(tuple: Tuple, scratch: &mut Vec<u8>) -> Option<Arc<[u8]>> {
    scratch.clear();
    match (Frame::Output { tuple }).encode_into(scratch) {
        Ok(()) => Some(Arc::from(&scratch[..])),
        // Unencodable output is an internal invariant failure, not a
        // subscriber's problem; never panic the sink over it.
        Err(_) => {
            debug_assert!(false, "output frame failed to encode");
            None
        }
    }
}

impl SinkCollector for Broadcast {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        let data = tuple.is_data();
        let Some(bytes) = encode_output(tuple, &mut self.scratch) else {
            return;
        };
        let mut st = self.inner.lock().unwrap();
        st.delivered += 1;
        let mut overflows = 0;
        let mut shed = 0;
        for q in st.subs.iter().flatten() {
            let mut sub = q.state.lock().unwrap();
            if sub.finished {
                continue;
            }
            if sub.overflowed {
                // Disconnect policy already tripped: the poller is still
                // draining the prefix, so count what it will never see —
                // it freezes this ledger (sets `finished`) the moment it
                // reads the count for its final drop notice.
                if data {
                    sub.dropped += 1;
                }
                continue;
            }
            if sub.buf.len() >= q.cap {
                match self.policy {
                    OverflowPolicy::Shed => shed += SubQueue::make_room(&mut sub),
                    OverflowPolicy::Disconnect => {
                        sub.overflowed = true;
                        overflows += 1;
                        if data {
                            sub.dropped += 1;
                        }
                        continue;
                    }
                }
            }
            sub.buf.push_back(SubItem {
                bytes: Arc::clone(&bytes),
                data,
            });
            sub.peak = sub.peak.max(sub.buf.len());
            if sub.buf.len() == 1 {
                // Empty until now, so its poller may be parked.
                q.poller.unpark();
            }
        }
        st.overflows += overflows;
        st.shed += shed;
    }
}

/// State shared by every server thread.
struct Shared {
    cfg: ServerConfig,
    engine: Mutex<Engine>,
    broadcast: Broadcast,
    sentinel: Arc<SentinelStats>,
    shutdown: AtomicBool,
    /// Hard stop for the IO threads, set after the final engine drain;
    /// distinct from `shutdown` (which starts the graceful drain).
    terminate: AtomicBool,
    /// Producer connections past handshake and not yet drained; shutdown
    /// waits for this to reach zero before the final source close.
    active_producers: AtomicU64,
    started: Instant,
    stats: StatsCell,
    latency: Mutex<LatencyRecorder>,
    /// Latency recordings attempted under the engine lock (must stay 0).
    latency_violations: AtomicU64,
    queue: ingest::IngestQueue,
    pool: ingest::IoPool,
}

impl Shared {
    /// Micros since server start, the wall timeline for idle tracking.
    fn now_us(&self) -> Timestamp {
        Timestamp::from_micros(self.started.elapsed().as_micros() as u64)
    }

    /// Locks the engine, tracking per-thread nesting depth so latency
    /// recording can assert it happens outside the critical section.
    fn lock_engine(&self) -> EngineGuard<'_> {
        let guard = self.engine.lock().unwrap();
        ENGINE_LOCK_DEPTH.with(|d| d.set(d.get() + 1));
        EngineGuard { guard }
    }

    /// Records wire→sink latency observations under one recorder lock.
    /// Must be called with the engine lock released; a call under the
    /// lock is counted (and trips a debug assert) instead of recorded.
    fn record_latencies(&self, samples: impl Iterator<Item = TimeDelta>) {
        if ENGINE_LOCK_DEPTH.with(|d| d.get()) > 0 {
            self.latency_violations.fetch_add(1, Ordering::SeqCst);
            debug_assert!(false, "latency recorder touched under the engine lock");
            return;
        }
        let mut rec = self.latency.lock().unwrap();
        for elapsed in samples {
            rec.record(elapsed);
        }
    }
}

/// A running `msq serve` instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pollers: Vec<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl Server {
    /// Plans `cfg.program`, binds the listener and starts accepting.
    pub fn start(cfg: ServerConfig) -> Result<Server> {
        let check = cfg.check.unwrap_or_else(CheckMode::from_env);
        let broadcast = Broadcast::new(cfg.overflow, cfg.subscriber_queue);
        let planned = plan_program(&cfg.program, broadcast.clone())?;
        let mut exec = Executor::new(
            planned.graph,
            VirtualClock::shared(),
            CostModel::free(),
            EtsPolicy::None,
        )
        .with_check_mode(check);
        if let Some(node) = planned.monitor {
            exec.monitor_idle(node);
        }
        let started = Instant::now();
        let sentinel = SentinelStats::shared();
        let mut ports = Vec::new();
        let mut by_name = HashMap::new();
        for s in &planned.sources {
            by_name.insert(s.stream.clone(), ports.len());
            ports.push(Port {
                source: s.id,
                stream: s.stream.clone(),
                schema: s.schema.clone(),
                sentinel: OrderSentinel::new(
                    check,
                    format!("net:{}", s.stream),
                    Arc::clone(&sentinel),
                ),
                data_hw: None,
                punct_hw: None,
                closed: false,
                producers: 0,
                idle_due: None,
                idle: IdleTracker::new(Timestamp::ZERO),
                ingested: 0,
                duplicates: 0,
                rejected: 0,
                synthesized: 0,
            });
        }
        let engine = Engine {
            exec,
            ports,
            by_name,
            output_schema: planned.output_schema,
            monitor: planned.monitor,
            max_ts: 0,
        };
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| Error::runtime(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::runtime(format!("local_addr: {e}")))?;
        let io_threads = cfg.io_threads.max(1);
        let shared = Arc::new(Shared {
            cfg,
            engine: Mutex::new(engine),
            broadcast,
            sentinel,
            shutdown: AtomicBool::new(false),
            terminate: AtomicBool::new(false),
            active_producers: AtomicU64::new(0),
            started,
            stats: StatsCell::default(),
            latency: Mutex::new(LatencyRecorder::new()),
            latency_violations: AtomicU64::new(0),
            queue: ingest::IngestQueue::new(),
            pool: ingest::IoPool::new(io_threads),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            spawn_named("msq-accept".into(), move || {
                ingest::accept_loop(listener, shared)
            })
        };
        let mut pollers = Vec::with_capacity(io_threads);
        for idx in 0..io_threads {
            let s = Arc::clone(&shared);
            pollers.push(spawn_named(format!("msq-poll-{idx}"), move || {
                ingest::poller_loop(&s, idx)
            }));
        }
        let pump = {
            let s = Arc::clone(&shared);
            spawn_named("msq-pump".into(), move || ingest::pump_loop(&s))
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            pollers,
            pump: Some(pump),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the aggregate counters. Lock-free with
    /// respect to the engine: safe to call from any thread mid-run.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot(&self.shared.broadcast)
    }

    /// Graceful shutdown: stop accepting, let producers drain their
    /// in-flight frames, drain the ingest queue, close every open source
    /// so the final ETS (`Timestamp::MAX` punctuation) propagates, flush
    /// subscribers, and report.
    pub fn shutdown(mut self) -> Result<ServerReport> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Producers notice the flag at their next poll, drain whatever is
        // already buffered on the socket, get their final acks, and
        // retire; the pump, awake while anything is pending, drains
        // whatever they queued.
        let deadline = Instant::now() + Duration::from_secs(10);
        self.shared.pool.wake_all();
        while (self.shared.active_producers.load(Ordering::SeqCst) > 0
            || self.shared.queue.pending() > 0)
            && Instant::now() <= deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Final drain: close still-open sources and run the engine dry.
        let report = {
            let mut eng = self.shared.lock_engine();
            let now_us = self.shared.now_us();
            for i in 0..eng.ports.len() {
                if !eng.ports[i].closed {
                    let source = eng.ports[i].source;
                    eng.exec.close_source(source)?;
                    eng.ports[i].closed = true;
                }
                eng.ports[i].idle.finish(now_us);
            }
            eng.run()?;
            eng.exec.finish_idle();
            let clock = eng.exec.clock().now();
            let monitor_idle_fraction = eng
                .monitor
                .and_then(|m| eng.exec.idle_tracker(m))
                .map(|t| t.idle_fraction(clock));
            let ports = eng
                .ports
                .iter()
                .map(|p| PortReport {
                    stream: p.stream.clone(),
                    ingested: p.ingested,
                    duplicates: p.duplicates,
                    rejected: p.rejected,
                    synthesized: p.synthesized,
                    closed: p.closed,
                    idle: p.idle.summarize(now_us),
                })
                .collect::<Vec<_>>();
            (ports, eng.exec.stats(), monitor_idle_fraction)
        };
        // End every subscriber stream (final punctuation, then EOF) —
        // *before* assembling the report, so the shed/peak totals include
        // anything the final mark had to displace.
        self.shared.broadcast.finish();
        // Subscribers flush what they hold and retire. One still stalled at
        // the deadline is dropped by the hard stop below, so a peer that
        // never reads cannot hold shutdown.
        while self.shared.broadcast.live() > 0 && Instant::now() <= deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Hard-stop the IO threads and collect them.
        self.shared.terminate.store(true, Ordering::SeqCst);
        self.shared.queue.notify();
        self.shared.pool.wake_all();
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        for h in self.pollers.drain(..) {
            let _ = h.join();
        }
        let (ports, exec, monitor_idle_fraction) = report;
        Ok(ServerReport {
            stats: self.shared.stats.snapshot(&self.shared.broadcast),
            ports,
            latency: self.shared.latency.lock().unwrap().summarize(),
            latency_lock_violations: self.shared.latency_violations.load(Ordering::SeqCst),
            exec,
            wire_sentinel_violations: self.shared.sentinel.total(),
            sub_peak_queue: self.shared.broadcast.peak(),
            monitor_idle_fraction,
        })
    }
}

/// [`std::thread::spawn`] with a name. Server thread names stay within the
/// kernel's 15-byte `comm`, so `/proc/<pid>/task/*/comm` and `top -H` tell
/// the accept, poller and pump threads apart.
fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn server thread")
}

/// Queue-pressure classification carried by a [`Frame::Feedback`]. The
/// discriminants are the wire encoding (`Frame::Feedback.level`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub(crate) enum PressureLevel {
    /// Below the high watermark: no pacing.
    Normal = 0,
    /// At or above the high watermark: pace down.
    High = 1,
    /// At or above the critical watermark: minimal window.
    Critical = 2,
}

impl PressureLevel {
    /// The wire encoding of the level.
    pub(crate) fn as_u8(self) -> u8 {
        self as u8
    }
}

/// Occupancy thresholds that classify a queue depth into a pressure
/// level (see [`ServerConfig::feedback`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Occupancy at or above this paces producers to a window of 4.
    high: usize,
    /// Occupancy at or above this paces producers to a window of 1.
    critical: usize,
}

impl Watermarks {
    /// Creates a watermark pair; `critical` is raised to at least `high`
    /// and both to at least 1, so an empty queue is always below them and
    /// the classification is monotone by construction.
    pub fn new(high: usize, critical: usize) -> Watermarks {
        Watermarks {
            high: high.max(1),
            critical: critical.max(high.max(1)),
        }
    }

    pub(crate) fn classify(&self, occupancy: usize) -> PressureLevel {
        if occupancy >= self.critical {
            PressureLevel::Critical
        } else if occupancy >= self.high {
            PressureLevel::High
        } else {
            PressureLevel::Normal
        }
    }
}

impl Default for Watermarks {
    /// Bounds one operator's input backlog, in tuples: pace at 512 queued
    /// in front of any single operator, clamp hard at 896.
    fn default() -> Watermarks {
        Watermarks::new(512, 896)
    }
}

/// The send window (max unacked frames) requested of a producer at each
/// pressure level; `0` means "no limit requested".
fn pacing_window(level: PressureLevel) -> u64 {
    match level {
        PressureLevel::Normal => 0,
        PressureLevel::High => 4,
        PressureLevel::Critical => 1,
    }
}

/// A frame the engine refused: what to tell the peer, and whether the
/// condition is an actual invariant failure (worth propagating) or just a
/// per-connection rejection.
struct Reject {
    code: ErrorCode,
    error: Error,
}

fn reject(code: ErrorCode, error: Error) -> Reject {
    Reject { code, error }
}

/// Applies one producer frame under the engine lock, **without** running
/// the graph: the pump batches `advance_clock` + `run` once per section.
/// `batch_max` accumulates the clock target; `need_run` is
/// set when the engine absorbed anything worth scheduling. Returns `true`
/// iff a **data tuple entered the graph** (not a duplicate, a dominance
/// reject, a heartbeat or a close) — the pump uses this to attribute
/// wire-arrival instants to eventual sink deliveries.
fn apply_item(
    eng: &mut Engine,
    stats: &StatsCell,
    port_idx: usize,
    frame: Frame,
    batch_max: &mut u64,
    need_run: &mut bool,
) -> std::result::Result<bool, Reject> {
    match frame {
        Frame::Data { tuple, .. } => {
            if !tuple.is_data() {
                // Wire-level mirror of `Executor::ingest`'s contract.
                return Err(reject(
                    ErrorCode::Protocol,
                    Error::runtime(format!(
                        "DATA frame on `{}` carries punctuation; use a HEARTBEAT frame",
                        eng.ports[port_idx].stream
                    )),
                ));
            }
            if eng.ports[port_idx].closed {
                return Err(reject(
                    ErrorCode::Engine,
                    Error::runtime(format!("source `{}` is closed", eng.ports[port_idx].stream)),
                ));
            }
            let ts = tuple.ts.as_micros();
            if eng.ports[port_idx].data_hw.is_some_and(|hw| ts <= hw) {
                // Retransmitted duplicate (producer timestamps are
                // strictly increasing): ack without ingesting.
                eng.ports[port_idx].duplicates += 1;
                stats.duplicates_dropped.fetch_add(1, Ordering::SeqCst);
                return Ok(false);
            }
            if let Some(phw) = eng.ports[port_idx].punct_hw {
                if ts < phw {
                    // High-water dominance at the socket boundary: this
                    // data contradicts a heartbeat already asserted
                    // (possibly synthesized while the producer was
                    // silent). Count + drop; fatal under strict.
                    let port = &mut eng.ports[port_idx];
                    match port.sentinel.check_punct_dominance(
                        &format!("wire:{}", port.stream),
                        Timestamp::from_micros(ts),
                        Timestamp::from_micros(phw),
                    ) {
                        Ok(()) => {
                            port.rejected += 1;
                            stats.rejected_tuples.fetch_add(1, Ordering::SeqCst);
                            return Ok(false);
                        }
                        Err(e) => {
                            return Err(Reject {
                                code: ErrorCode::Invariant,
                                error: e,
                            });
                        }
                    }
                }
            }
            let source = eng.ports[port_idx].source;
            eng.exec
                .ingest(source, tuple)
                .map_err(|e| reject(ErrorCode::Engine, e))?;
            eng.ports[port_idx].data_hw = Some(ts);
            eng.ports[port_idx].ingested += 1;
            eng.max_ts = eng.max_ts.max(ts);
            stats.tuples_ingested.fetch_add(1, Ordering::SeqCst);
            *batch_max = (*batch_max).max(ts);
            *need_run = true;
            Ok(true)
        }
        Frame::Heartbeat { ts, .. } => {
            if eng.ports[port_idx].closed {
                return Err(reject(
                    ErrorCode::Engine,
                    Error::runtime(format!("source `{}` is closed", eng.ports[port_idx].stream)),
                ));
            }
            let us = ts.as_micros();
            let source = eng.ports[port_idx].source;
            eng.exec
                .ingest_heartbeat(source, ts)
                .map_err(|e| reject(ErrorCode::Engine, e))?;
            let port = &mut eng.ports[port_idx];
            if !punctuation_is_stale(us, port.data_hw, port.punct_hw) {
                port.punct_hw = Some(us);
            }
            stats.heartbeats_in.fetch_add(1, Ordering::SeqCst);
            *batch_max = (*batch_max).max(us);
            *need_run = true;
            Ok(false)
        }
        Frame::Close { .. } => {
            if !eng.ports[port_idx].closed {
                let source = eng.ports[port_idx].source;
                eng.exec
                    .close_source(source)
                    .map_err(|e| reject(ErrorCode::Engine, e))?;
                eng.ports[port_idx].closed = true;
                *need_run = true;
            }
            Ok(false)
        }
        _ => unreachable!("pollers forward only seq-bearing frames"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_classify_monotonically_and_repair_degenerate_pairs() {
        let wm = Watermarks::new(10, 20);
        assert_eq!(wm.classify(0), PressureLevel::Normal);
        assert_eq!(wm.classify(9), PressureLevel::Normal);
        assert_eq!(wm.classify(10), PressureLevel::High);
        assert_eq!(wm.classify(19), PressureLevel::High);
        assert_eq!(wm.classify(20), PressureLevel::Critical);
        assert_eq!(wm.classify(usize::MAX), PressureLevel::Critical);
        // critical below high is raised; zero thresholds become 1 so an
        // empty queue is always Normal.
        assert_eq!(Watermarks::new(10, 3).critical, 10);
        let wm = Watermarks::new(0, 0);
        assert_eq!(wm.classify(0), PressureLevel::Normal);
        assert_eq!(wm.classify(1), PressureLevel::Critical);
    }
}
