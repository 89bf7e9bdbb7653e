//! The two wire workloads (`wire_union_steady`, `wire_union_flood`) and the
//! wire-side layer cells (rate ladder, idle synthesis).
//!
//! The load generator is two threads over three loopback sockets: a pacer
//! that writes both producer connections (and drains their acks), and a
//! drain thread that reads the subscriber. It speaks the protocol through
//! the public `Frame` / `FrameReader` API with batched writes instead of
//! `StreamClient`, whose `send` rescans its whole unacked window and issues
//! one write + flush per frame — a generator built on it measures the
//! client (`net.client_send_ns_*` reports that cost on its own).
//!
//! Untraced runs host the query in a real `msq serve` child process, so the
//! CPU and memory figures are the server's alone. Traced runs host it
//! in-process through `millstream_net::Server`, which is the only way to
//! reach `Server::stats` / `ServerReport`: `msq serve` exposes no
//! structured stats.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use millstream_net::{
    Frame, FrameReader, ReadOutcome, Role, Server, ServerConfig, ServerReport, PROTOCOL_VERSION,
};
use millstream_types::{Timestamp, Tuple, Value};

use crate::engine::{int_cols, UNION_PROGRAM};
use crate::proc;
use crate::report;
use crate::schedule::{
    steady_reference, steady_schedule, Checksum, Rng, SteadyEvent, SteadyKind, URow,
    UnionReference, UNION_PASS_BELOW,
};
use crate::stats;
use crate::trace::Tracer;

/// `wire_union_steady` offered load on `fast`; `slow` carries a thousandth
/// of it (the paper's 50 : 0.05 ratio, × 1000).
pub const STEADY_FAST_HZ: f64 = 50_000.0;
/// Heartbeat cadence on `slow`: a constant 0.5 ms mean frontier wait sits
/// under every steady latency.
pub const STEADY_HB_PERIOD_US: u64 = 1_000;
/// `wire_union_flood`: frames per block (one `slow` heartbeat per block).
const FLOOD_BLOCK: u64 = 512;
/// `wire_union_flood`: closed-loop window — input tuples sent whose results
/// have not come back; sixteen pump batches. Bounds the subscriber queue
/// (which sheds, it does not push back) well under `SUB_QUEUE`, and keeps
/// what is queued inside the server a small part of its resident set.
const FLOOD_WINDOW: u64 = 16_384;
/// `wire_union_flood`: the work is fixed — this many tuples per second of
/// `--seconds` — so that memory is reported at a stated input size. About
/// three quarters of what the reference host sustains, so a run lasts about
/// three quarters of `--seconds`; a system too slow to finish within 1.5 ×
/// `--seconds` is cut off there.
const FLOOD_TUPLES_PER_SECOND: u64 = 240_000;
/// Subscriber queue of the hosted server: large enough that nothing is shed.
const SUB_QUEUE: usize = 262_144;
/// Stream timestamps of the measured run start here; warm-up uses less.
const TS_BASE: u64 = 1_000_000;
/// Warm-up tuples sent (and awaited) during set-up. One burst, so it also
/// sets a floor under the server's peak resident set that the backlog of a
/// single scheduler stall during the run stays below.
const WARMUP_TUPLES: u64 = 20_000;
/// Pacer tick when nothing is due.
const PACER_TICK: Duration = Duration::from_micros(100);
/// Set-up repetitions the reported `setup_s` is the median of.
pub const SETUP_REPS: usize = 9;
/// A steady run whose generator ran later than this at p99 did not offer
/// the open-loop schedule it claims.
pub const GEN_LAG_LIMIT_MS: f64 = 10.0;

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// A child process that is killed and reaped if it is dropped while still
/// running, so no error path leaves an `msq serve` behind.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// The hosted query: a real `msq serve` child, or an in-process server.
enum Host {
    Child {
        child: ChildGuard,
        stdin: Option<ChildStdin>,
    },
    InProcess(Server),
}

/// What a host reported when it stopped.
#[derive(Debug, Default)]
pub struct HostReport {
    pub rejected: u64,
    pub duplicates: u64,
    pub shed: u64,
    /// Only from an in-process host.
    pub server: Option<ServerReport>,
}

fn server_config(idle_timeout: Option<Duration>) -> ServerConfig {
    // The same settings `msq serve` gets on its command line below.
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.workers = 1;
    cfg.io_threads = 1;
    cfg.ingest_shards = 2;
    cfg.feedback = None;
    cfg.subscriber_queue = SUB_QUEUE;
    cfg.idle_timeout = idle_timeout;
    cfg
}

/// `msq` sits next to `mbench` in the target directory (`run.sh` builds
/// both there).
fn msq_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| io_err("current_exe", e))?;
    let path = exe.with_file_name("msq");
    path.exists()
        .then_some(path)
        .ok_or_else(|| "msq binary not found next to mbench; run benchmark/run.sh".into())
}

impl Host {
    fn spawn_child() -> Result<(Host, String), String> {
        let query = report::bench_dir().join("queries").join("union.msq");
        let child = Command::new(msq_path()?)
            .arg("serve")
            .arg(&query)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--io-threads",
                "1",
            ])
            .args(["--ingest-shards", "2", "--no-feedback"])
            .args(["--sub-queue", &SUB_QUEUE.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| io_err("spawn msq serve", e))?;
        let mut child = ChildGuard(child);
        let stdin = child.0.stdin.take();
        let mut line = String::new();
        BufReader::new(child.0.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut line)
            .map_err(|e| io_err("read msq serve banner", e))?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            return Err(format!("msq serve did not start: `{}`", line.trim()));
        };
        Ok((Host::Child { child, stdin }, addr.to_string()))
    }

    fn start_in_process(idle_timeout: Option<Duration>) -> Result<(Host, String), String> {
        let server =
            Server::start(server_config(idle_timeout)).map_err(|e| io_err("Server::start", e))?;
        let addr = server.addr().to_string();
        Ok((Host::InProcess(server), addr))
    }

    /// The child's pid, if this host is a separate process.
    fn pid(&self) -> Option<u32> {
        match self {
            Host::Child { child, .. } => Some(child.0.id()),
            Host::InProcess(_) => None,
        }
    }

    /// Graceful stop: the server drains, ends the subscriber stream and
    /// reports. The child is waited for (killed if it does not exit).
    fn stop(self) -> Result<HostReport, String> {
        match self {
            Host::InProcess(server) => {
                let r = server.shutdown().map_err(|e| io_err("shutdown", e))?;
                Ok(HostReport {
                    rejected: r.stats.rejected_tuples,
                    duplicates: r.stats.duplicates_dropped,
                    shed: r.stats.sub_shed + r.exec.shed_tuples,
                    server: Some(r),
                })
            }
            Host::Child { mut child, stdin } => {
                if let Some(mut stdin) = stdin {
                    let _ = stdin.write_all(b"quit\n");
                }
                let deadline = Instant::now() + Duration::from_secs(20);
                loop {
                    match child.0.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        // Dropping the guard kills and reaps it.
                        _ => return Err("msq serve did not exit after `quit`".into()),
                    }
                }
                let mut text = String::new();
                if let Some(mut err) = child.0.stderr.take() {
                    let _ = err.read_to_string(&mut text);
                }
                Ok(parse_child_report(&text))
            }
        }
    }
}

/// Number immediately before `marker` in `text`.
fn number_before(text: &str, marker: &str) -> Option<u64> {
    let end = text.find(marker)?;
    text[..end].split_whitespace().next_back()?.parse().ok()
}

/// `msq serve` prints its report as prose on stderr; pick out the counts
/// the correctness check needs.
fn parse_child_report(stderr: &str) -> HostReport {
    HostReport {
        rejected: number_before(stderr, " rejected;").unwrap_or(0),
        duplicates: number_before(stderr, " duplicate(s) dropped").unwrap_or(0),
        shed: number_before(stderr, " tuple(s) shed from subscriber").unwrap_or(0)
            + number_before(stderr, " engine-shed").unwrap_or(0),
        server: None,
    }
}

/// One producer connection: nonblocking, so a full socket shows up as
/// `WouldBlock` (the server's pushback) and acks can be drained between
/// writes on the same thread.
struct Producer {
    stream: TcpStream,
    reader: FrameReader,
    next_seq: u64,
    acked: u64,
    error: Option<String>,
}

impl Producer {
    fn connect(addr: &str, name: &str) -> Result<Producer, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Producer,
            stream: name.to_string(),
            schema: None,
            resume_hint: 0,
        };
        millstream_net::write_frame(&mut stream, &hello).map_err(|e| io_err("hello", e))?;
        let mut reader = FrameReader::new();
        match reader.read_blocking(&mut stream) {
            Ok(Some(Frame::HelloAck { .. })) => {}
            other => return Err(format!("producer handshake on `{name}`: {other:?}")),
        }
        stream
            .set_nonblocking(true)
            .map_err(|e| io_err("nonblocking", e))?;
        Ok(Producer {
            stream,
            reader,
            next_seq: 1,
            acked: 0,
            error: None,
        })
    }

    fn seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn data(&mut self, buf: &mut Vec<u8>, ts: u64, id: i64, v: i64) {
        let frame = Frame::Data {
            seq: self.seq(),
            tuple: Tuple::data(Timestamp::from_micros(ts), [Value::Int(id), Value::Int(v)]),
        };
        buf.extend_from_slice(&frame.encode().expect("data frame encodes"));
    }

    fn heartbeat(&mut self, buf: &mut Vec<u8>, ts: u64) {
        let frame = Frame::Heartbeat {
            seq: self.seq(),
            ts: Timestamp::from_micros(ts),
        };
        buf.extend_from_slice(&frame.encode().expect("heartbeat frame encodes"));
    }

    fn close(&mut self, buf: &mut Vec<u8>) {
        let frame = Frame::Close { seq: self.seq() };
        buf.extend_from_slice(&frame.encode().expect("close frame encodes"));
    }

    /// Reads whatever the server has sent back without blocking.
    fn drain_acks(&mut self) {
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(ReadOutcome::Frame(Frame::Ack { seq, .. })) => self.acked = seq,
                Ok(ReadOutcome::Frame(Frame::Error { code, message })) => {
                    self.error = Some(format!("{code:?}: {message}"));
                    return;
                }
                Ok(ReadOutcome::Frame(_)) => {}
                Ok(ReadOutcome::Timeout) | Ok(ReadOutcome::Eof) => return,
                Err(e) => {
                    self.error = Some(e.to_string());
                    return;
                }
            }
        }
    }

    /// Writes all of `buf`, riding out pushback: on `WouldBlock` it drains
    /// acks and naps. Returns how long it was pushed back.
    fn write_all(&mut self, buf: &[u8]) -> Result<Duration, String> {
        let mut off = 0;
        let mut blocked = Duration::ZERO;
        while off < buf.len() {
            match self.stream.write(&buf[off..]) {
                Ok(0) => return Err("producer socket closed".into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let t = Instant::now();
                    self.drain_acks();
                    if let Some(e) = &self.error {
                        return Err(e.clone());
                    }
                    std::thread::sleep(Duration::from_micros(50));
                    blocked += t.elapsed();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("producer write", e)),
            }
        }
        Ok(blocked)
    }

    /// Waits until the server has acked every frame sent.
    fn await_acks(&mut self, patience: Duration) -> Result<(), String> {
        let deadline = Instant::now() + patience;
        while self.acked + 1 < self.next_seq {
            self.drain_acks();
            if let Some(e) = &self.error {
                return Err(e.clone());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "acks stalled at {} of {}",
                    self.acked,
                    self.next_seq - 1
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }
}

/// The subscriber connection, read through a large buffer so a burst of
/// output frames costs one `read` and not two per frame.
struct Subscriber {
    stream: BufReader<TcpStream>,
    reader: FrameReader,
    /// Cumulative outputs the server declared shed for us.
    dropped: u64,
}

impl Subscriber {
    fn connect(addr: &str) -> Result<Subscriber, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| io_err("read timeout", e))?;
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Subscriber,
            stream: String::new(),
            schema: None,
            resume_hint: 0,
        };
        millstream_net::write_frame(&mut stream, &hello).map_err(|e| io_err("hello", e))?;
        let mut sub = Subscriber {
            stream: BufReader::with_capacity(256 * 1024, stream),
            reader: FrameReader::new(),
            dropped: 0,
        };
        match sub.reader.read_blocking(&mut sub.stream) {
            Ok(Some(Frame::HelloAck { .. })) => Ok(sub),
            other => Err(format!("subscriber handshake: {other:?}")),
        }
    }

    /// Next output tuple; `Ok(None)` on a read timeout; `Err(None)` at the
    /// graceful end of the stream.
    fn next(&mut self) -> Result<Option<Tuple>, Option<String>> {
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(ReadOutcome::Frame(Frame::Output { tuple })) => return Ok(Some(tuple)),
                Ok(ReadOutcome::Frame(Frame::Feedback { dropped, .. })) => {
                    self.dropped = self.dropped.max(dropped);
                }
                Ok(ReadOutcome::Frame(Frame::Bye)) | Ok(ReadOutcome::Eof) => return Err(None),
                Ok(ReadOutcome::Frame(Frame::Error { code, message })) => {
                    return Err(Some(format!("subscription ended ({code:?}): {message}")))
                }
                Ok(ReadOutcome::Frame(_)) => {}
                Ok(ReadOutcome::Timeout) => return Ok(None),
                Err(e) => return Err(Some(e.to_string())),
            }
        }
    }
}

/// The two producer connections; the pacer thread owns them.
struct Producers {
    fast: Producer,
    slow: Producer,
}

impl Producers {
    fn drain_acks(&mut self) -> Result<(), String> {
        self.fast.drain_acks();
        self.slow.drain_acks();
        match self.fast.error.as_ref().or(self.slow.error.as_ref()) {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Ends both streams and waits until the server has taken everything.
    fn close(&mut self) -> Result<(), String> {
        let mut buf = Vec::new();
        for p in [&mut self.fast, &mut self.slow] {
            buf.clear();
            p.close(&mut buf);
            p.write_all(&buf)?;
        }
        self.fast.await_acks(Duration::from_secs(30))?;
        self.slow.await_acks(Duration::from_secs(30))
    }
}

/// A hosted server with the generator's three connections, warmed up.
struct Session {
    host: Host,
    producers: Producers,
    sub: Subscriber,
}

impl Session {
    /// Brings the system from nothing to ready-to-measure: start the host,
    /// handshake three connections, push a warm-up burst through the whole
    /// path and wait for its results.
    fn open(in_process: bool, idle_timeout: Option<Duration>) -> Result<Session, String> {
        let (host, addr) = if in_process {
            Host::start_in_process(idle_timeout)?
        } else {
            Host::spawn_child()?
        };
        let mut s = Session {
            producers: Producers {
                fast: Producer::connect(&addr, "fast")?,
                slow: Producer::connect(&addr, "slow")?,
            },
            sub: Subscriber::connect(&addr)?,
            host,
        };
        let mut buf = Vec::new();
        for i in 0..WARMUP_TUPLES {
            s.producers
                .fast
                .data(&mut buf, 2 * (i + 1), -1 - i as i64, 0);
        }
        s.producers.fast.write_all(&buf)?;
        buf.clear();
        s.producers.slow.heartbeat(&mut buf, 2 * WARMUP_TUPLES + 1);
        s.producers.slow.write_all(&buf)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = 0;
        while got < WARMUP_TUPLES {
            match s.sub.next() {
                Ok(Some(t)) if t.is_data() => {
                    if int_cols(&t).next() != Some(-1 - got as i64) {
                        return Err("warm-up output out of order".into());
                    }
                    got += 1;
                }
                Ok(_) if Instant::now() < deadline => {}
                Ok(_) => return Err(format!("warm-up stalled at {got} of {WARMUP_TUPLES}")),
                Err(e) => return Err(e.unwrap_or_else(|| "stream ended in warm-up".into())),
            }
        }
        Ok(s)
    }
}

/// Median time of `reps` full bring-ups; the last one is kept.
fn timed_open(in_process: bool, reps: usize) -> Result<(Session, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(Session { host, .. }) = last.take() {
            host.stop()?;
        }
        let t0 = Instant::now();
        last = Some(Session::open(in_process, None)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one repetition"),
        stats::median(&times).expect("set-up ran"),
    ))
}

/// What the drain thread saw.
#[derive(Debug, Default)]
struct Drained {
    got: Checksum,
    out_of_order: u64,
    /// Latency samples (ms) per 1 s receive slice.
    slice_lat_ms: Vec<Vec<f64>>,
    /// Highest `fast` id seen by the end of each receive slice.
    slice_max_id: Vec<i64>,
    dropped: u64,
    error: Option<String>,
    /// Spans of the drain thread (traced run).
    tracer: Option<Tracer>,
}

/// How the drain thread turns a received tuple into a latency sample.
#[derive(Clone)]
enum LatencyBase {
    /// Open loop: the tuple's timestamp is its due offset.
    DueTimestamp,
    /// Flood: start-of-write instants (µs since zero) per block of ids.
    BlockStarts(Arc<Mutex<Vec<u64>>>),
}

/// Progress the drain thread publishes for the pacer.
#[derive(Default)]
struct Progress {
    /// Highest `fast` id received, plus one.
    covered: AtomicU64,
    done: AtomicBool,
}

fn drain_loop(
    mut sub: Subscriber,
    zero: Instant,
    base: LatencyBase,
    progress: Arc<Progress>,
    traced: bool,
) -> Drained {
    let mut d = Drained::default();
    let mut tracer = Tracer::new(traced);
    let mut last_ts = 0u64;
    let mut max_id = -1i64;
    let mut starts: Vec<u64> = Vec::new();
    let mut span = usize::MAX;
    let mut frames = 0u64;
    loop {
        if frames.is_multiple_of(512) {
            tracer.close(span);
            span = tracer.open("net.read_decode_512", None, frames / 512);
        }
        let tuple = match sub.next() {
            Ok(Some(t)) => t,
            Ok(None) => {
                if progress.done.load(Ordering::Relaxed) {
                    d.error = Some("subscriber stream did not end".into());
                    break;
                }
                continue;
            }
            Err(None) => break,
            Err(Some(e)) => {
                d.error = Some(e);
                break;
            }
        };
        if !tuple.is_data() {
            continue; // the final Timestamp::MAX mark
        }
        frames += 1;
        let now_us = zero.elapsed().as_micros() as u64;
        let ts = tuple.ts.as_micros();
        if ts < last_ts {
            d.out_of_order += 1;
        }
        last_ts = ts;
        d.got.fold(ts, int_cols(&tuple));
        let id = int_cols(&tuple).next().unwrap_or(0);
        let is_fast = ts % 2 == 0;
        if is_fast && id > max_id {
            max_id = id;
            progress.covered.store(id as u64 + 1, Ordering::Relaxed);
        }
        let due_us = match &base {
            LatencyBase::DueTimestamp => ts - TS_BASE,
            LatencyBase::BlockStarts(shared) => {
                let block = (id as u64 / FLOOD_BLOCK) as usize;
                if block >= starts.len() {
                    let all = shared.lock().expect("block starts lock");
                    starts.extend_from_slice(&all[starts.len()..]);
                }
                starts[block]
            }
        };
        let slice = (now_us / 1_000_000) as usize;
        if d.slice_lat_ms.len() <= slice {
            d.slice_lat_ms.resize_with(slice + 1, Vec::new);
            d.slice_max_id.resize(slice + 1, max_id);
        }
        d.slice_lat_ms[slice].push(now_us.saturating_sub(due_us) as f64 / 1e3);
        d.slice_max_id[slice] = max_id;
    }
    tracer.close(span);
    d.tracer = Some(tracer);
    d.dropped = sub.dropped;
    d
}

/// What one wire run measured.
#[derive(Debug, Default)]
pub struct WireOutcome {
    pub setup_s: f64,
    pub setup_reps: usize,
    /// Input tuples covered per 1 s receive slice.
    pub slice_thr: Vec<f64>,
    pub slice_p50_ms: Vec<f64>,
    pub slice_p90_ms: Vec<f64>,
    /// Samples in the smallest kept slice.
    pub min_slice_samples: usize,
    /// Every latency sample of the kept slices, sorted (ms).
    pub all_lat_ms: Vec<f64>,
    /// CPU seconds of the system under test per 10⁶ input tuples covered,
    /// per 1 s slice.
    pub slice_cpu_s_per_mtuple: Vec<f64>,
    /// `VmHWM` of the hosting process at the end of the run.
    pub peak_rss_mb: f64,
    pub sent_tuples: u64,
    pub expected: Checksum,
    pub got: Checksum,
    pub out_of_order: u64,
    pub host: HostReport,
    pub sub_dropped: u64,
    pub gen_lag_p50_ms: f64,
    pub gen_lag_p99_ms: f64,
    pub gen_lag_max_ms: f64,
    /// Time the pacer spent pushed back by a full socket, seconds.
    pub pushback_s: f64,
    /// CPU share of the `millstream-work*` threads among the server's
    /// threads (in-process hosts only).
    pub engine_cpu_share: f64,
    pub error: Option<String>,
}

/// Which wire workload to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireKind {
    /// Open loop at the given `fast` rate (tuples/s); `slow` runs at a
    /// thousandth of it plus the 1 ms heartbeat. With `all_pass` every
    /// tuple passes the selection — the only condition under which the
    /// server's own FIFO latency attribution is exact.
    Steady { fast_hz: f64, all_pass: bool },
    /// Closed loop: as fast as TCP and the in-flight window allow.
    Flood,
    /// `slow` connected but silent; the server's idle-timeout synthesis
    /// has to move the union's frontier.
    IdleSynth { fast_hz: f64 },
}

/// The pacer's side of a run.
struct Paced {
    /// Seconds since zero at which the last input was written.
    sent_for: f64,
    sent: u64,
    expected: Checksum,
    lag_ms: Vec<f64>,
    pushback: Duration,
    tracer: Tracer,
}

fn pace_schedule(
    s: &mut Producers,
    events: &[SteadyEvent],
    zero: Instant,
    traced: bool,
) -> Result<Paced, String> {
    let mut tracer = Tracer::new(traced);
    let mut lag_ms = Vec::with_capacity(events.len());
    let mut pushback = Duration::ZERO;
    let (mut fast_buf, mut slow_buf) = (Vec::new(), Vec::new());
    let mut next = 0;
    let mut tick = 0u64;
    let mut sent = 0u64;
    while next < events.len() {
        let now_us = zero.elapsed().as_micros() as u64;
        let first = next;
        let root = tracer.open("tick", None, tick);
        let enc = tracer.open("net.frame_encode", Some(root), tick);
        while next < events.len() && events[next].ts <= now_us {
            let e = &events[next];
            match e.kind {
                SteadyKind::Fast => {
                    s.fast.data(&mut fast_buf, TS_BASE + e.ts, e.id, e.v);
                    sent += 1;
                }
                SteadyKind::Slow => {
                    s.slow.data(&mut slow_buf, TS_BASE + e.ts, e.id, e.v);
                    sent += 1;
                }
                SteadyKind::SlowHeartbeat => s.slow.heartbeat(&mut slow_buf, TS_BASE + e.ts),
            }
            next += 1;
        }
        tracer.close(enc);
        if next > first {
            let w = tracer.open("net.socket_write", Some(root), tick);
            pushback += s.fast.write_all(&fast_buf)?;
            pushback += s.slow.write_all(&slow_buf)?;
            fast_buf.clear();
            slow_buf.clear();
            tracer.close(w);
            let written_us = zero.elapsed().as_micros() as u64;
            for e in &events[first..next] {
                lag_ms.push(written_us.saturating_sub(e.ts) as f64 / 1e3);
            }
        }
        tracer.close(root);
        tick += 1;
        s.drain_acks()?;
        if next < events.len() && events[next].ts > zero.elapsed().as_micros() as u64 {
            std::thread::sleep(PACER_TICK);
        }
    }
    Ok(Paced {
        sent_for: zero.elapsed().as_secs_f64(),
        sent,
        expected: steady_reference(events, TS_BASE),
        lag_ms,
        pushback,
        tracer,
    })
}

fn pace_flood(
    s: &mut Producers,
    seed: u64,
    seconds: f64,
    zero: Instant,
    starts: &Mutex<Vec<u64>>,
    progress: &Progress,
    traced: bool,
) -> Result<Paced, String> {
    let mut tracer = Tracer::new(traced);
    let mut rng = Rng::new(seed);
    let mut reference = UnionReference::new(2);
    let mut pushback = Duration::ZERO;
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut id = 0u64;
    let mut block = 0u64;
    let target = (seconds * FLOOD_TUPLES_PER_SECOND as f64) as u64;
    while id < target && zero.elapsed().as_secs_f64() < 1.5 * seconds {
        while id - progress.covered.load(Ordering::Relaxed).min(id) > FLOOD_WINDOW {
            s.drain_acks()?;
            if zero.elapsed().as_secs_f64() > seconds + 30.0 {
                return Err("flood window never reopened".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        starts
            .lock()
            .expect("block starts lock")
            .push(zero.elapsed().as_micros() as u64);
        let root = tracer.open("block", None, block);
        let enc = tracer.open("net.frame_encode", Some(root), block);
        let mut last_ts = 0;
        for _ in 0..FLOOD_BLOCK {
            let ts = TS_BASE + 2 * (id + 1);
            let v = rng.below(1000) as i64;
            s.fast.data(&mut buf, ts, id as i64, v);
            reference.push(
                0,
                URow {
                    ts,
                    id: id as i64,
                    v,
                },
            );
            last_ts = ts;
            id += 1;
        }
        tracer.close(enc);
        let w = tracer.open("net.socket_write", Some(root), block);
        pushback += s.fast.write_all(&buf)?;
        buf.clear();
        s.slow.heartbeat(&mut buf, last_ts + 1);
        pushback += s.slow.write_all(&buf)?;
        buf.clear();
        tracer.close(w);
        tracer.close(root);
        reference.drain_upto(last_ts);
        s.drain_acks()?;
        block += 1;
    }
    Ok(Paced {
        sent_for: zero.elapsed().as_secs_f64(),
        sent: id,
        expected: reference.expected,
        lag_ms: Vec::new(),
        pushback,
        tracer,
    })
}

/// Threads of this process that belong to an in-process server: everything
/// not alive before it started and not named `bench-*`.
fn server_threads(before: &HashSet<u32>) -> Vec<proc::ThreadCpu> {
    proc::threads(std::process::id())
        .into_iter()
        .filter(|t| !before.contains(&t.tid) && !t.comm.starts_with("bench-"))
        .collect()
}

/// CPU nanoseconds of the system under test right now: the child's whole
/// process, or the in-process server's threads `(total, engine workers)`.
fn sut_cpu(host: &Host, before: &HashSet<u32>) -> (u64, u64) {
    match host.pid() {
        Some(pid) => (proc::process_cpu_ns(pid), 0),
        None => {
            let threads = server_threads(before);
            let total = threads.iter().map(|t| t.cpu_ns).sum();
            let engine = threads
                .iter()
                .filter(|t| t.comm.starts_with("millstream-work"))
                .map(|t| t.cpu_ns)
                .sum();
            (total, engine)
        }
    }
}

/// Runs one wire workload for `seconds` after `setup_reps` timed bring-ups.
/// `in_process` selects the traced host; with `trace_out` the generator
/// threads also record spans into it.
pub fn run(
    kind: WireKind,
    seed: u64,
    seconds: f64,
    in_process: bool,
    setup_reps: usize,
    trace_out: Option<&mut Vec<Tracer>>,
) -> Result<WireOutcome, String> {
    let traced = trace_out.is_some();
    let before: HashSet<u32> = proc::threads(std::process::id())
        .iter()
        .map(|t| t.tid)
        .collect();
    let (session, setup_s) = match kind {
        WireKind::IdleSynth { .. } => {
            let t0 = Instant::now();
            let s = Session::open(true, Some(Duration::from_millis(5)))?;
            (s, t0.elapsed().as_secs_f64())
        }
        _ => timed_open(in_process, setup_reps)?,
    };

    // Inputs come from the seed alone, before the clock starts.
    let mut events = match kind {
        WireKind::Steady { fast_hz, .. } => steady_schedule(
            seed,
            (seconds * 1e6) as u64,
            fast_hz,
            fast_hz / 1000.0,
            STEADY_HB_PERIOD_US,
        ),
        WireKind::IdleSynth { fast_hz } => {
            steady_schedule(seed, (seconds * 1e6) as u64, fast_hz, 1e-9, u64::MAX)
        }
        WireKind::Flood => Vec::new(),
    };
    if matches!(kind, WireKind::Steady { all_pass: true, .. }) {
        for e in &mut events {
            e.v %= UNION_PASS_BELOW;
        }
    }

    let progress = Arc::new(Progress::default());
    let starts = Arc::new(Mutex::new(Vec::new()));
    let base = match kind {
        WireKind::Flood => LatencyBase::BlockStarts(Arc::clone(&starts)),
        _ => LatencyBase::DueTimestamp,
    };
    let Session {
        host,
        mut producers,
        sub,
    } = session;
    let (cpu0, engine0) = sut_cpu(&host, &before);
    let zero = Instant::now();
    let drain = {
        let progress = Arc::clone(&progress);
        std::thread::Builder::new()
            .name("bench-drain".into())
            .spawn(move || drain_loop(sub, zero, base, progress, traced))
            .expect("spawn drain thread")
    };
    // The pacer gets a named thread of its own so that an in-process
    // server's threads can be told apart from the generator's.
    let pacer = {
        let progress = Arc::clone(&progress);
        std::thread::Builder::new()
            .name("bench-pacer".into())
            .spawn(move || {
                let paced = match kind {
                    WireKind::Flood => pace_flood(
                        &mut producers,
                        seed,
                        seconds,
                        zero,
                        &starts,
                        &progress,
                        traced,
                    ),
                    _ => pace_schedule(&mut producers, &events, zero, traced),
                };
                // Every input is in: close both streams so the union
                // releases its tail, and wait for the server's acks.
                paced.and_then(|p| producers.close().map(|()| p))
            })
            .expect("spawn pacer thread")
    };
    // This thread is idle while the other two work: once a second (on the
    // same boundaries the drain thread slices by) it samples the CPU time
    // the system under test has used so far.
    let mut cpu_samples = vec![cpu0];
    while !pacer.is_finished() {
        let next = Duration::from_secs(cpu_samples.len() as u64);
        match next.checked_sub(zero.elapsed()) {
            Some(wait) => std::thread::sleep(wait.min(Duration::from_millis(20))),
            None => cpu_samples.push(sut_cpu(&host, &before).0),
        }
    }
    let paced = pacer.join().expect("pacer thread");
    // Sample the system under test while it is still alive and idle.
    let (cpu1, engine1) = sut_cpu(&host, &before);
    let peak_rss_mb = proc::peak_rss_mb(host.pid().unwrap_or_else(std::process::id)).unwrap_or(0.0);
    progress.done.store(true, Ordering::Relaxed);
    let host_report = host.stop();
    let drained = drain.join().expect("drain thread");
    let paced = paced?;
    let host_report = host_report?;

    let mut out = WireOutcome {
        setup_s,
        setup_reps,
        peak_rss_mb,
        sent_tuples: paced.sent,
        expected: paced.expected,
        got: drained.got,
        out_of_order: drained.out_of_order,
        sub_dropped: drained.dropped,
        pushback_s: paced.pushback.as_secs_f64(),
        engine_cpu_share: if cpu1 > cpu0 {
            (engine1 - engine0) as f64 / (cpu1 - cpu0) as f64
        } else {
            0.0
        },
        host: host_report,
        error: drained.error,
        ..WireOutcome::default()
    };
    let mut lag = paced.lag_ms;
    if let Some(p) = stats::percentiles(&mut lag, &[0.5, 0.99, 1.0]) {
        out.gen_lag_p50_ms = p[0];
        out.gen_lag_p99_ms = p[1];
        out.gen_lag_max_ms = p[2];
    }
    // Whole receive slices only: the slice in which sending stopped is
    // partial, and the estimator drops the first and last kept slice too.
    let whole = (paced.sent_for.floor() as usize).min(drained.slice_lat_ms.len());
    let mut prev_id = -1i64;
    let mut kept: Vec<Vec<f64>> = Vec::new();
    for (i, mut lat) in drained.slice_lat_ms.into_iter().take(whole).enumerate() {
        let max_id = drained.slice_max_id[i];
        let covered = (max_id - prev_id) as f64;
        out.slice_thr.push(covered);
        if let (Some(a), Some(b)) = (cpu_samples.get(i), cpu_samples.get(i + 1)) {
            out.slice_cpu_s_per_mtuple
                .push((b - a) as f64 / 1e9 / (covered.max(1.0) / 1e6));
        }
        prev_id = max_id;
        let p = stats::percentiles(&mut lat, &[0.5, 0.9]).unwrap_or_else(|| vec![0.0, 0.0]);
        out.slice_p50_ms.push(p[0]);
        out.slice_p90_ms.push(p[1]);
        kept.push(lat);
    }
    if kept.len() >= 3 {
        kept.remove(0);
        kept.pop();
    }
    out.min_slice_samples = kept.iter().map(Vec::len).min().unwrap_or(0);
    out.all_lat_ms = kept.concat();
    out.all_lat_ms.sort_by(f64::total_cmp);
    if let Some(traces) = trace_out {
        traces.push(paced.tracer);
        traces.extend(drained.tracer);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_prose_report_of_msq_serve() {
        let stderr = "# serving; close stdin (or type `quit`) for a graceful drain\n\
            # served 4 connection(s): 1000 tuple(s) in, 20 heartbeat(s), 0 synthesized, \
            3 duplicate(s) dropped, 2 rejected; 950 row(s) delivered\n\
            # feedback: 0 pacing frame(s) to producers; 7 tuple(s) shed from subscriber \
            queues (declared), 1 engine-shed, 0 overflow disconnect(s); peak subscriber queue 9\n";
        let r = parse_child_report(stderr);
        assert_eq!((r.rejected, r.duplicates, r.shed), (2, 3, 8));
        let clean = parse_child_report("# served 3 connection(s): 5 tuple(s) in, 0 heartbeat(s), 0 synthesized, 0 duplicate(s) dropped, 0 rejected; 5 row(s) delivered");
        assert_eq!((clean.rejected, clean.duplicates, clean.shed), (0, 0, 0));
    }

    /// The whole wire path against an in-process server: a short open-loop
    /// run must deliver exactly what the k-way merge reference expects.
    #[test]
    fn steady_run_matches_reference_in_process() {
        let out = run(
            WireKind::Steady {
                fast_hz: 5_000.0,
                all_pass: false,
            },
            7,
            1.2,
            true,
            1,
            None,
        )
        .expect("run");
        assert_eq!(out.error, None);
        assert!(out.expected.rows > 4_000, "{}", out.expected.rows);
        assert_eq!(out.got, out.expected);
        assert_eq!(out.out_of_order, 0);
        assert_eq!(out.host.rejected + out.host.duplicates + out.host.shed, 0);
        assert!(out.gen_lag_p99_ms >= out.gen_lag_p50_ms);
    }

    #[test]
    fn flood_run_matches_reference_in_process() {
        let out = run(WireKind::Flood, 8, 0.5, true, 1, None).expect("run");
        assert_eq!(out.error, None);
        assert!(out.sent_tuples >= FLOOD_BLOCK);
        assert_eq!(out.got, out.expected);
        assert_eq!(out.out_of_order, 0);
    }
}
