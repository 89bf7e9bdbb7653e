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
//! walking one query graph. The engine is a plain value the pump owns; no
//! other thread touches it while the pump runs. Pollers own every socket
//! and answer what the plan alone decides (protocol version, stream name,
//! schema, row width, the subscriber handshake). Each producer's
//! [`FrameReader`] reads once per readiness event and decodes every frame
//! that read buffered (partial frames survive between polls); the poller
//! validates frame order at the socket boundary and hands each step's
//! frames to the one bounded ingest queue in one lock. A producer's
//! attach and detach travel on the same queue, in order with its frames.
//! The pump drains whole batches in hand-off order and enters the engine
//! **once per batch** — `{ingest*, advance clock, run-to-quiescence}` —
//! instead of once per frame, so one engine section is amortized across
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
//! encode per tuple, not a thousand. The sink only stages a section's
//! slabs; after the run the pump publishes them, taking each subscriber
//! queue's lock once per section, and wakes a subscriber's poller only
//! when its queue went from empty to non-empty. The poller moves a batch
//! of slabs into the connection's outbox whenever the outbox has
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

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use millstream_buffer::{punctuation_is_stale, CheckMode, OrderSentinel, SentinelStats};
use millstream_exec::{CostModel, EtsPolicy, ExecStats, Executor, NodeId, SourceId, VirtualClock};
use millstream_metrics::{IdleSummary, IdleTracker, LatencySummary};
use millstream_ops::SinkCollector;
use millstream_query::plan_program;
use millstream_types::{Error, Result, Schema, Timestamp, Tuple};

use crate::frame::{ErrorCode, Frame, PROTOCOL_VERSION};

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
    /// Engine sections that applied producer frames; the
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
    /// Tuples the sink delivered and the pump published to the
    /// subscribers, once per engine section after its run.
    pub delivered: u64,
    /// Subscribers that overflowed their bounded queue (disconnected
    /// under [`OverflowPolicy::Disconnect`]; kept under `Shed`).
    pub subscriber_overflows: u64,
    /// Data tuples shed from subscriber queues under
    /// [`OverflowPolicy::Shed`], plus outputs too large to encode as one
    /// frame ([`crate::MAX_FRAME_LEN`]), once for each subscriber they
    /// were bound for — every one declared to its subscriber via a
    /// [`Frame::Feedback`] drop notice.
    pub sub_shed: u64,
    /// Feedback pacing frames sent to producer connections.
    pub feedback_frames: u64,
}

/// Lock-free storage behind [`ServerStats`]: every counter the ingest
/// pump and the pollers touch lives here, so [`Server::stats`] reads them
/// mid-run without asking the pump.
///
/// `connections` and `conns_active` have several writers (the accept
/// loop and every poller) and take locked `fetch_add`s. Every other
/// counter is written by the pump alone, through [`pump_add`].
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

/// The pump's `counter += 1` on a counter no other thread writes: a
/// relaxed load and store, no locked read-modify-write on the per-frame
/// path. Readers on other threads still see whole values.
fn pump_add(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
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

/// The pump's side of one planned source. How far the source has got —
/// its data and ETS high-waters, whether it is closed, how many tuples it
/// took — is the executor's [`millstream_exec::SourceState`], read
/// through [`Engine::source`], never copied here.
struct Port {
    source: SourceId,
    /// Wire-order sentinel for this source's socket boundary (punctuation
    /// dominance of late data against synthesized marks).
    sentinel: OrderSentinel,
    producers: usize,
    /// When the source counts as network-silent: the last frame's arrival
    /// (or the first attach) plus the idle timeout, moved one timeout on
    /// each time it fires. `None` without an idle timeout.
    idle_due: Option<Instant>,
    /// Network-idleness over the server's wall-clock timeline.
    idle: IdleTracker,
    duplicates: u64,
    rejected: u64,
    synthesized: u64,
}

/// The engine and the wire ports: a plain value the pump thread owns.
struct Engine {
    exec: Executor,
    ports: Vec<Port>,
    monitor: Option<NodeId>,
}

/// What one engine section has absorbed so far: the clock target
/// (micros) and whether anything is worth a run.
#[derive(Default)]
struct Section {
    clock: u64,
    run: bool,
}

impl Section {
    fn absorb(&mut self, ts: Timestamp) {
        self.clock = self.clock.max(ts.as_micros());
        self.run = true;
    }
}

/// A producer frame's verdict: applied — `true` iff a data tuple entered
/// the graph, which the pump attributes wire-arrival instants to — or
/// refused with the code to tell the connection that sent it.
type Verdict = std::result::Result<bool, (ErrorCode, Error)>;

impl Engine {
    /// The executor's state for the source behind `port_idx`.
    fn source(&self, port_idx: usize) -> &millstream_exec::SourceState {
        self.exec.graph().source(self.ports[port_idx].source)
    }

    /// Advances the executor clock to `ts` micros (the clock never goes
    /// backwards) and re-evaluates the monitored operator at the new time.
    fn advance_clock(&mut self, ts: u64) {
        self.exec.clock().advance_to(Timestamp::from_micros(ts));
        self.exec.refresh_idle();
    }

    /// Runs the graph to quiescence. An operator panic fails the section
    /// like any other engine error instead of unwinding through the pump,
    /// which would take the engine down with it (the panic hook has
    /// already printed the payload to stderr).
    fn run(&mut self) -> Result<()> {
        catch_unwind(AssertUnwindSafe(|| {
            self.exec.run_until_quiescent(RUN_BUDGET)
        }))
        .unwrap_or_else(|_| Err(Error::runtime("engine panicked while running the section")))
        .map(|_| ())
    }

    /// One more producer on `port_idx`. Returns its `HelloAck`, whose
    /// resume mark is the source's data high-water after every frame
    /// queued before the attach.
    fn attach(&mut self, port_idx: usize, due: Option<Instant>, now_us: Timestamp) -> Frame {
        let port = &mut self.ports[port_idx];
        port.producers += 1;
        // The silence clock starts when a producer first attaches.
        port.idle_due = port.idle_due.or(due);
        // A (re)connecting producer is activity: the source is no longer
        // network-starved.
        port.idle.set_idle(now_us, false);
        let source = self.source(port_idx);
        Frame::HelloAck {
            version: PROTOCOL_VERSION,
            schema: source.schema.clone(),
            resume_ts: source.last_data_ts.map_or(0, Timestamp::as_micros),
        }
    }

    /// One producer fewer on `port_idx`: with none left on an open
    /// source, the source is network-starved from now (a reconnect clears
    /// it).
    fn detach(&mut self, port_idx: usize, now_us: Timestamp) {
        let open = !self.source(port_idx).closed;
        let port = &mut self.ports[port_idx];
        port.producers -= 1;
        if port.producers == 0 && open {
            port.idle.set_idle(now_us, true);
        }
    }

    /// Applies one data frame, **without** running the graph: the pump
    /// runs once per section. A duplicate or a dominance reject is acked
    /// without entering the graph.
    fn ingest(
        &mut self,
        stats: &StatsCell,
        port_idx: usize,
        tuple: Tuple,
        section: &mut Section,
    ) -> Verdict {
        let source = self.exec.graph().source(self.ports[port_idx].source);
        let port = &mut self.ports[port_idx];
        if !tuple.is_data() {
            // Wire-level mirror of `Executor::ingest`'s contract.
            let msg = format!(
                "DATA frame on `{}` carries punctuation; use a HEARTBEAT frame",
                source.name
            );
            return Err((ErrorCode::Protocol, Error::runtime(msg)));
        }
        if source.closed {
            let msg = format!("source `{}` is closed", source.name);
            return Err((ErrorCode::Engine, Error::runtime(msg)));
        }
        let ts = tuple.ts;
        if source.last_data_ts.is_some_and(|hw| ts <= hw) {
            // Retransmitted duplicate (producer timestamps are strictly
            // increasing): ack without ingesting.
            port.duplicates += 1;
            pump_add(&stats.duplicates_dropped);
            return Ok(false);
        }
        if let Some(mark) = source.ets_high_water.filter(|&mark| ts < mark) {
            // High-water dominance at the socket boundary: this data
            // contradicts a heartbeat already asserted (possibly
            // synthesized while the producer was silent). Count + drop;
            // fatal under strict.
            port.sentinel
                .check_punct_dominance(&format!("wire:{}", source.name), ts, mark)
                .map_err(|e| (ErrorCode::Invariant, e))?;
            port.rejected += 1;
            pump_add(&stats.rejected_tuples);
            return Ok(false);
        }
        self.exec
            .ingest(port.source, tuple)
            .map_err(|e| (ErrorCode::Engine, e))?;
        pump_add(&stats.tuples_ingested);
        section.absorb(ts);
        Ok(true)
    }

    /// Applies one wire heartbeat. The executor refuses one on a closed
    /// source and drops a stale one (counted in its stats).
    fn heartbeat(
        &mut self,
        stats: &StatsCell,
        port_idx: usize,
        ts: Timestamp,
        section: &mut Section,
    ) -> Verdict {
        self.exec
            .ingest_heartbeat(self.ports[port_idx].source, ts)
            .map_err(|e| (ErrorCode::Engine, e))?;
        pump_add(&stats.heartbeats_in);
        section.absorb(ts);
        Ok(false)
    }

    /// Declares end-of-stream on the source behind `port_idx`.
    fn close(&mut self, port_idx: usize, section: &mut Section) -> Verdict {
        if !self.source(port_idx).closed {
            self.exec
                .close_source(self.ports[port_idx].source)
                .map_err(|e| (ErrorCode::Engine, e))?;
            section.run = true;
        }
        Ok(false)
    }

    /// Fires every live deadline that has passed: the source is marked
    /// network-starved, gets a heartbeat at stream time (the highest data
    /// timestamp any source accepted) if that asserts something new for
    /// it, and is re-armed one timeout later either way — so a silent port
    /// costs at most one synthesis per timeout, and one whose mark would be
    /// stale cannot spin the pump. A port is live while its source is open
    /// and a producer is attached. Returns the earliest live deadline
    /// still ahead.
    fn synthesize_due(
        &mut self,
        stats: &StatsCell,
        timeout: Option<Duration>,
        now_us: Timestamp,
        section: &mut Section,
    ) -> Option<Instant> {
        let timeout = timeout?;
        let now = Instant::now();
        let stream_time = (0..self.ports.len())
            .filter_map(|i| self.source(i).last_data_ts)
            .max();
        let Engine { exec, ports, .. } = self;
        let live =
            |exec: &Executor, p: &Port| p.producers > 0 && !exec.graph().source(p.source).closed;
        for port in ports.iter_mut() {
            match port.idle_due {
                Some(due) if due <= now && live(exec, port) => port.idle_due = Some(now + timeout),
                _ => continue,
            }
            port.idle.set_idle(now_us, true);
            let source = exec.graph().source(port.source);
            let fresh = stream_time.filter(|&t| {
                t > Timestamp::ZERO
                    && !punctuation_is_stale(t, source.last_data_ts, source.ets_high_water)
            });
            let Some(mark) = fresh else { continue };
            // A failed synthesis is the engine's, not the silent
            // producer's: the port just waits for its next deadline.
            if exec.ingest_heartbeat(port.source, mark).is_ok() {
                port.synthesized += 1;
                pump_add(&stats.synthesized_heartbeats);
                section.absorb(mark);
            }
        }
        ports
            .iter()
            .filter(|p| live(exec, p))
            .filter_map(|p| p.idle_due)
            .min()
    }

    /// The final drain: closes every still-open source so the final ETS
    /// (`Timestamp::MAX` punctuation) propagates, runs the engine dry,
    /// finishes the idle trackers and reports. The counters the IO
    /// threads still move are left for [`Server::shutdown`] to fill in.
    fn final_drain(mut self, now_us: Timestamp, latency: LatencySummary) -> Result<ServerReport> {
        for port in &mut self.ports {
            self.exec.close_source(port.source)?;
            port.idle.finish(now_us);
        }
        self.run()?;
        self.exec.finish_idle();
        let clock = self.exec.clock().now();
        let monitor_idle_fraction = self
            .monitor
            .and_then(|m| self.exec.idle_tracker(m))
            .map(|t| t.idle_fraction(clock));
        let graph = self.exec.graph();
        let ports = self
            .ports
            .iter()
            .map(|p| {
                let source = graph.source(p.source);
                PortReport {
                    stream: source.name.clone(),
                    ingested: source.ingested,
                    duplicates: p.duplicates,
                    rejected: p.rejected,
                    synthesized: p.synthesized,
                    closed: source.closed,
                    idle: p.idle.summarize(now_us),
                }
            })
            .collect();
        Ok(ServerReport {
            stats: ServerStats::default(),
            ports,
            latency,
            exec: self.exec.stats(),
            wire_sentinel_violations: 0,
            sub_peak_queue: 0,
            monitor_idle_fraction,
        })
    }
}

/// One pre-encoded output frame in a subscriber queue. The slab is shared
/// (`Arc<[u8]>`) across every subscriber: the sink encodes once and each
/// tail writes the same bytes.
#[derive(Clone)]
struct SubItem {
    bytes: Arc<[u8]>,
    /// Whether the encoded frame carries a data tuple (sheddable) or a
    /// punctuation mark (never shed, only coalesced).
    data: bool,
}

/// One sink output waiting for the section's [`Broadcast::publish`].
enum Staged {
    /// An encoded frame, bound for every live subscriber queue.
    Frame(SubItem),
    /// An output too large for one frame ([`crate::MAX_FRAME_LEN`]): no
    /// subscriber can receive it, so each live one has it declared in its
    /// drop ledger instead.
    Lost,
}

/// One subscriber's bounded output queue, shared between the publishing
/// pump (under the broadcast lock) and the poller that owns the
/// subscriber's socket.
struct SubQueue {
    state: Mutex<SubState>,
    cap: usize,
    /// The poller that owns the subscriber's socket, woken when a publish
    /// gives the queue its first items and at the end of the stream.
    poller: Thread,
}

struct SubState {
    buf: VecDeque<SubItem>,
    /// Cumulative data tuples shed or lost for this subscriber — the
    /// figure its [`Frame::Feedback`] drop notices carry.
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
/// gets a bounded view of the shared encoded stream. The sink only stages
/// what a section outputs; the pump publishes the section's outputs to
/// the subscriber queues once the run is over.
#[derive(Clone)]
struct Broadcast {
    inner: Arc<Mutex<BroadcastState>>,
    /// Outputs of the running engine section, in delivery order. The sink
    /// and the publishing pump are one thread, so this lock is never
    /// contended; the list keeps its capacity from section to section.
    staged: Arc<Mutex<Vec<Staged>>>,
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
            staged: Arc::new(Mutex::new(Vec::new())),
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
        // A departed subscriber's slot is reused, so `subs` — walked on
        // every publish — is as long as the most subscribers ever
        // connected at once, not as the number ever connected.
        let slot = match st.subs.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                st.subs.push(None);
                st.subs.len() - 1
            }
        };
        st.subs[slot] = Some(Arc::clone(&q));
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

    /// Fans the section's staged outputs out to the subscriber queues:
    /// one broadcast lock, one lock per queue, and at most one unpark per
    /// subscriber — only for a queue that went from empty to non-empty,
    /// whose poller may be parked. Within a queue the per-item rules run
    /// in delivery order: a full queue sheds its oldest data item under
    /// [`OverflowPolicy::Shed`] or trips `overflowed` under
    /// [`OverflowPolicy::Disconnect`], after which every data item counts
    /// as dropped. An empty staging list touches nothing.
    fn publish(&self) {
        let mut staged = self.staged.lock().unwrap();
        if staged.is_empty() {
            return;
        }
        let mut st = self.inner.lock().unwrap();
        st.delivered += staged.len() as u64;
        let mut overflows = 0;
        let mut shed = 0;
        for q in st.subs.iter().flatten() {
            let mut sub = q.state.lock().unwrap();
            if sub.finished {
                continue;
            }
            let was_empty = sub.buf.is_empty();
            for output in staged.iter() {
                let item = match output {
                    Staged::Frame(item) => item,
                    Staged::Lost => {
                        // Declared like a shed tuple, so the subscriber's
                        // next drop notice accounts for it.
                        sub.dropped += 1;
                        if !sub.overflowed {
                            shed += 1;
                        }
                        continue;
                    }
                };
                if sub.overflowed {
                    // Disconnect policy already tripped: the poller is
                    // still draining the prefix, so count what it will
                    // never see — it freezes this ledger (sets `finished`)
                    // the moment it reads the count for its final notice.
                    if item.data {
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
                            if item.data {
                                sub.dropped += 1;
                            }
                            continue;
                        }
                    }
                }
                sub.buf.push_back(item.clone());
                sub.peak = sub.peak.max(sub.buf.len());
            }
            if was_empty && !sub.buf.is_empty() {
                q.poller.unpark();
            }
        }
        st.overflows += overflows;
        st.shed += shed;
        staged.clear();
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
/// copied once into the slab. `None` means the frame would exceed
/// [`crate::MAX_FRAME_LEN`]: a join can concatenate rows that each fit
/// into one that does not.
fn encode_output(tuple: Tuple, scratch: &mut Vec<u8>) -> Option<Arc<[u8]>> {
    scratch.clear();
    (Frame::Output { tuple })
        .encode_into(scratch)
        .ok()
        .map(|()| Arc::from(&scratch[..]))
}

impl SinkCollector for Broadcast {
    /// Encodes the output and stages it for the section's publish; no
    /// subscriber queue is touched mid-run.
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        let data = tuple.is_data();
        let staged = match encode_output(tuple, &mut self.scratch) {
            Some(bytes) => Staged::Frame(SubItem { bytes, data }),
            None => Staged::Lost,
        };
        self.staged.lock().unwrap().push(staged);
    }
}

/// State shared by every server thread. The engine is not here: the pump
/// owns it.
struct Shared {
    cfg: ServerConfig,
    /// The plan's stream name → (port index, schema): what a producer
    /// handshake is checked against.
    streams: HashMap<String, (usize, Schema)>,
    /// The plan's output schema, sent in every subscriber `HelloAck`.
    output_schema: Schema,
    broadcast: Broadcast,
    sentinel: Arc<SentinelStats>,
    shutdown: AtomicBool,
    /// Set once producers have drained (or the drain deadline passed): the
    /// pump closes every open source, runs the engine dry and exits with
    /// its report.
    final_drain: AtomicBool,
    /// Hard stop for the IO threads, set after the final engine drain;
    /// distinct from `shutdown` (which starts the graceful drain).
    terminate: AtomicBool,
    /// Producer connections past handshake and not yet drained; shutdown
    /// waits for this to reach zero before the final source close.
    active_producers: AtomicU64,
    started: Instant,
    stats: StatsCell,
    queue: ingest::IngestQueue,
    pool: ingest::IoPool,
}

impl Shared {
    /// Micros since server start, the wall timeline for idle tracking.
    fn now_us(&self) -> Timestamp {
        Timestamp::from_micros(self.started.elapsed().as_micros() as u64)
    }
}

/// A running `msq serve` instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    pollers: Vec<JoinHandle<()>>,
    pump: JoinHandle<Result<ServerReport>>,
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
        let mut streams = HashMap::new();
        for s in &planned.sources {
            streams.insert(s.stream.clone(), (ports.len(), s.schema.clone()));
            ports.push(Port {
                source: s.id,
                sentinel: OrderSentinel::new(
                    check,
                    format!("net:{}", s.stream),
                    Arc::clone(&sentinel),
                ),
                producers: 0,
                idle_due: None,
                idle: IdleTracker::new(Timestamp::ZERO),
                duplicates: 0,
                rejected: 0,
                synthesized: 0,
            });
        }
        let engine = Engine {
            exec,
            ports,
            monitor: planned.monitor,
        };
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| Error::runtime(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::runtime(format!("local_addr: {e}")))?;
        let io_threads = cfg.io_threads.max(1);
        let shared = Arc::new(Shared {
            cfg,
            streams,
            output_schema: planned.output_schema,
            broadcast,
            sentinel,
            shutdown: AtomicBool::new(false),
            final_drain: AtomicBool::new(false),
            terminate: AtomicBool::new(false),
            active_producers: AtomicU64::new(0),
            started,
            stats: StatsCell::default(),
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
            spawn_named("msq-pump".into(), move || ingest::pump_loop(&s, engine))
        };
        Ok(Server {
            shared,
            addr,
            accept,
            pollers,
            pump,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the aggregate counters. Lock-free and
    /// independent of the pump: safe to call from any thread mid-run.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot(&self.shared.broadcast)
    }

    /// Graceful shutdown: stop accepting, let producers drain their
    /// in-flight frames, drain the ingest queue, close every open source
    /// so the final ETS (`Timestamp::MAX` punctuation) propagates, flush
    /// subscribers, and report. Every server thread is stopped and joined
    /// before this returns, a failed final drain included.
    pub fn shutdown(self) -> Result<ServerReport> {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        // Producers notice the flag at their next poll, drain whatever is
        // already buffered on the socket, get their final acks, and
        // retire; the pump, awake while anything is pending, drains
        // whatever they queued, their detaches included.
        let deadline = Instant::now() + Duration::from_secs(10);
        shared.pool.wake_all();
        while (shared.active_producers.load(Ordering::SeqCst) > 0 || shared.queue.pending() > 0)
            && Instant::now() <= deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Final drain, on the pump where the engine lives: it closes the
        // still-open sources, runs the engine dry and hands back what the
        // report needs.
        shared.final_drain.store(true, Ordering::SeqCst);
        shared.queue.notify();
        let report = self
            .pump
            .join()
            .unwrap_or_else(|_| Err(Error::runtime("ingest pump panicked")));
        if report.is_ok() {
            // End every subscriber stream (final punctuation, then EOF) —
            // *before* assembling the report, so the shed/peak totals
            // include anything the final mark had to displace.
            shared.broadcast.finish();
            // Subscribers flush what they hold and retire. One still
            // stalled at the deadline is dropped by the hard stop below,
            // so a peer that never reads cannot hold shutdown.
            while shared.broadcast.live() > 0 && Instant::now() <= deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Hard-stop the IO threads and collect them.
        shared.terminate.store(true, Ordering::SeqCst);
        shared.pool.wake_all();
        for h in self.pollers {
            let _ = h.join();
        }
        let mut report = report?;
        report.stats = shared.stats.snapshot(&shared.broadcast);
        report.wire_sentinel_violations = shared.sentinel.total();
        report.sub_peak_queue = shared.broadcast.peak();
        Ok(report)
    }
}

/// [`std::thread::spawn`] with a name. Server thread names stay within the
/// kernel's 15-byte `comm`, so `/proc/<pid>/task/*/comm` and `top -H` tell
/// the accept, poller and pump threads apart.
fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_types::Value;

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

    /// Subscribers that come and go reuse their vacated slot, so the slot
    /// list every delivery walks does not grow with the number ever
    /// connected; one connected throughout receives every delivery.
    #[test]
    fn subscriber_slots_are_reused() {
        let mut broadcast = Broadcast::new(OverflowPolicy::Shed, 2048);
        let (stay_slot, stay) = broadcast.subscribe(2048, std::thread::current());
        for i in 0..1_000u64 {
            let (slot, _) = broadcast.subscribe(4, std::thread::current());
            broadcast.deliver(
                Tuple::punctuation(Timestamp::from_micros(i)),
                Timestamp::ZERO,
            );
            broadcast.publish();
            broadcast.unsubscribe(slot);
        }
        let slots = broadcast.inner.lock().unwrap().subs.len();
        assert_eq!(
            slots, 2,
            "the stayer's slot plus one that every cycle reused"
        );
        assert_eq!(stay_slot, 0);
        assert_eq!(stay.state.lock().unwrap().buf.len(), 1_000);
    }

    fn data(ts: u64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
    }

    fn punct(ts: u64) -> Tuple {
        Tuple::punctuation(Timestamp::from_micros(ts))
    }

    /// Stages `tuples` through the sink, as one engine section's run
    /// would, and publishes them.
    fn section(broadcast: &mut Broadcast, tuples: Vec<Tuple>) {
        for t in tuples {
            broadcast.deliver(t, Timestamp::ZERO);
        }
        broadcast.publish();
    }

    /// The queued frames, in queue order, as (timestamp, is-data).
    fn queued(q: &SubQueue) -> Vec<(u64, bool)> {
        let st = q.state.lock().unwrap();
        st.buf
            .iter()
            .map(|it| match Frame::decode(&it.bytes[4..]) {
                Ok(Frame::Output { tuple }) => {
                    assert_eq!(it.data, tuple.is_data());
                    (tuple.ts.as_micros(), tuple.is_data())
                }
                other => panic!("not an output frame: {other:?}"),
            })
            .collect()
    }

    fn ledger(broadcast: &Broadcast) -> (u64, u64, u64) {
        (
            broadcast.delivered(),
            broadcast.shed_total(),
            broadcast.overflows(),
        )
    }

    /// A section that outruns a shedding subscriber's cap sheds exactly
    /// the oldest data items, never a mark, and keeps the survivors in
    /// delivery order within the cap.
    #[test]
    fn publish_sheds_the_oldest_data_of_an_oversized_section() {
        let mut broadcast = Broadcast::new(OverflowPolicy::Shed, 4);
        let (_, q) = broadcast.subscribe(4, std::thread::current());
        let tuples = vec![
            punct(0),
            data(1),
            data(2),
            punct(3),
            data(4),
            data(5),
            data(6),
            data(7),
        ];
        section(&mut broadcast, tuples);
        assert_eq!(
            queued(&q),
            vec![(0, false), (3, false), (6, true), (7, true)]
        );
        let st = q.state.lock().unwrap();
        assert_eq!(st.dropped, 4);
        assert_eq!(st.peak, 4);
        assert!(!st.overflowed);
        drop(st);
        assert_eq!(ledger(&broadcast), (8, 4, 0));
        assert_eq!(broadcast.peak(), 4);
    }

    /// Under `Disconnect` the first item past the cap trips `overflowed`,
    /// and every later data item of the same publish is counted dropped;
    /// later marks are not.
    #[test]
    fn publish_trips_disconnect_at_the_first_item_past_cap() {
        let mut broadcast = Broadcast::new(OverflowPolicy::Disconnect, 3);
        let (_, q) = broadcast.subscribe(3, std::thread::current());
        let tuples = vec![
            data(1),
            data(2),
            punct(3),
            data(4),
            data(5),
            punct(6),
            data(7),
        ];
        section(&mut broadcast, tuples);
        assert_eq!(queued(&q), vec![(1, true), (2, true), (3, false)]);
        let st = q.state.lock().unwrap();
        assert!(st.overflowed);
        assert_eq!(st.dropped, 3, "4, 5 and 7");
        assert_eq!(st.peak, 3);
        drop(st);
        assert_eq!(ledger(&broadcast), (7, 0, 1));
    }

    /// Two subscribers with different caps see the same section, each
    /// with its own exact ledger.
    #[test]
    fn publish_keeps_a_ledger_per_subscriber() {
        let mut broadcast = Broadcast::new(OverflowPolicy::Shed, 5);
        let (_, small) = broadcast.subscribe(2, std::thread::current());
        let (_, large) = broadcast.subscribe(5, std::thread::current());
        section(&mut broadcast, (1..=6).map(data).collect());
        assert_eq!(queued(&small), vec![(5, true), (6, true)]);
        assert_eq!(
            queued(&large),
            (2..=6).map(|ts| (ts, true)).collect::<Vec<_>>()
        );
        let counts = |q: &SubQueue| {
            let st = q.state.lock().unwrap();
            (st.dropped, st.peak)
        };
        assert_eq!(counts(&small), (4, 2));
        assert_eq!(counts(&large), (1, 5));
        assert_eq!(ledger(&broadcast), (6, 5, 0));
        assert_eq!(broadcast.peak(), 5);
    }

    /// A publish with nothing staged changes no queue and no counter.
    #[test]
    fn empty_publish_changes_nothing() {
        let mut broadcast = Broadcast::new(OverflowPolicy::Shed, 2);
        let (_, q) = broadcast.subscribe(2, std::thread::current());
        section(&mut broadcast, vec![data(1), data(2), data(3)]);
        let before = (queued(&q), q.state.lock().unwrap().dropped);
        assert_eq!(before, (vec![(2, true), (3, true)], 1));
        broadcast.publish();
        assert_eq!((queued(&q), q.state.lock().unwrap().dropped), before);
        assert_eq!(ledger(&broadcast), (3, 1, 0));
        assert_eq!(broadcast.peak(), 2);
    }
}
