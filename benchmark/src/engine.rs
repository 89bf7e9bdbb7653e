//! The two in-engine workloads: `engine_union_ets` and `engine_join_window`.
//!
//! Both plan their query with `plan_program` onto a serial `Executor` and
//! drive it in 250-tuple rounds of `ingest_batch` + `run_until_quiescent`.
//! A generator thread builds the rounds (and the reference result) ahead of
//! the engine thread, so the engine thread's wall and CPU time are the
//! engine's own: only the calls into `millstream_exec` are timed.
//!
//! Throughput is the median over fixed-work slices of
//! `slice tuples / time inside the engine`; latency is the round turnaround
//! (hand-in of 250 tuples → every result of the round delivered), per-slice
//! p50/p90, then the median across slices.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use millstream_exec::{CostModel, EtsPolicy, ExecStats, Executor, SourceId, VirtualClock};
use millstream_ops::SinkCollector;
use millstream_query::plan_program;
use millstream_types::{Timestamp, Tuple, Value};

use crate::proc;
use crate::schedule::{Checksum, JoinReference, Rng, URow, UnionReference, Zipf};
use crate::stats;
use crate::trace::Tracer;

pub const UNION_PROGRAM: &str = include_str!("../queries/union.msq");
pub const JOIN_PROGRAM: &str = include_str!("../queries/join.msq");

/// Tuples handed to the engine per round.
pub const ROUND_TUPLES: u64 = 250;
/// Rounds per fixed-work slice (250 000 tuples).
pub const ROUNDS_PER_SLICE: u64 = 1000;
/// `engine_union_ets`: one `slow` tuple every this many rounds.
const SLOW_EVERY_ROUNDS: u64 = 200;
/// `engine_union_ets`: warm-up rounds (part of set-up).
const UNION_WARMUP_ROUNDS: u64 = 400;
/// `engine_join_window`: window length in stream microseconds; tuples are
/// 1 µs apart, so this many tuples are logically live.
pub const JOIN_WINDOW_US: u64 = 400_000;
/// `engine_join_window`: key universe and skew. Zipf(0.3) over 245 000 keys
/// gives results/input ≈ 1.0 at 200 000 tuples per side (n·Σp² with
/// Σp² ≈ 1.225/K), and keeps most buckets occupied: a sparser universe
/// (Zipf(0.5) over 700 000 keys gives the same ratio) sends `JoinState`
/// through empty-bucket rebuild cycles about 2 M tuples long, in which
/// slice throughput swings 4× and the median of a 20 s run lands on either
/// side.
pub const JOIN_KEYS: usize = 245_000;
pub const JOIN_ZIPF_S: f64 = 0.3;
/// `engine_join_window`: warm-up rounds — fills both windows once and
/// runs a quarter window past that.
const JOIN_WARMUP_ROUNDS: u64 = (JOIN_WINDOW_US + JOIN_WINDOW_US / 4) / ROUND_TUPLES;
/// Step budget per `run_until_quiescent`; only a livelock would reach it.
const RUN_BUDGET: u64 = 100_000_000;

/// What the sink saw, shared with the thread that checks it. The sink is
/// the only writer, so plain loads and stores suffice.
#[derive(Default)]
struct SinkState {
    rows: AtomicU64,
    hash: AtomicU64,
    last_ts: AtomicU64,
    out_of_order: AtomicU64,
}

/// Counting/checksum collector: folds every delivered row into the rolling
/// checksum and counts timestamp regressions.
#[derive(Clone, Default)]
pub struct CheckSink(Arc<SinkState>);

impl CheckSink {
    pub fn got(&self) -> Checksum {
        Checksum {
            rows: self.0.rows.load(Ordering::Relaxed),
            hash: self.0.hash.load(Ordering::Relaxed),
        }
    }

    pub fn out_of_order(&self) -> u64 {
        self.0.out_of_order.load(Ordering::Relaxed)
    }
}

pub fn int_cols(tuple: &Tuple) -> impl Iterator<Item = i64> + '_ {
    tuple.values().unwrap_or(&[]).iter().map(|v| match v {
        Value::Int(i) => *i,
        _ => 0x5EED,
    })
}

impl SinkCollector for CheckSink {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        let s = &*self.0;
        let ts = tuple.ts.as_micros();
        if ts < s.last_ts.load(Ordering::Relaxed) {
            s.out_of_order.store(
                s.out_of_order.load(Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
        }
        s.last_ts.store(ts, Ordering::Relaxed);
        let mut c = Checksum {
            rows: s.rows.load(Ordering::Relaxed),
            hash: s.hash.load(Ordering::Relaxed),
        };
        c.fold(ts, int_cols(&tuple));
        s.rows.store(c.rows, Ordering::Relaxed);
        s.hash.store(c.hash, Ordering::Relaxed);
    }
}

/// One round of input for the engine thread.
pub struct Round {
    /// Clock reading to advance to before ingesting (last timestamp).
    clock_to: u64,
    /// One batch per source, in source order.
    batches: [Vec<Tuple>; 2],
    /// A single extra tuple for source 1 (the sparse `slow` stream).
    single: Option<Tuple>,
    /// Heartbeat both sources at `clock_to` after the data (join purge).
    heartbeat: bool,
}

/// A seeded stream of rounds that also accumulates the expected output.
pub trait RoundGen: Send + 'static {
    fn next_round(&mut self) -> Round;
    /// Expected output of every round generated so far plus everything a
    /// final close releases.
    fn finish(self) -> Checksum;
}

fn row2(ts: u64, a: i64, b: i64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), [Value::Int(a), Value::Int(b)])
}

/// `engine_union_ets` input: `fast` carries every tuple (even timestamps,
/// `v` uniform in `[0, 1000)`), `slow` one tuple every 200 rounds (odd
/// timestamp), so every round ends on a starved `slow` and backtracks to it
/// for an on-demand ETS.
pub struct UnionGen {
    rng: Rng,
    next_id: i64,
    slow_id: i64,
    round: u64,
    reference: UnionReference,
}

impl UnionGen {
    pub fn new(seed: u64) -> Self {
        UnionGen {
            rng: Rng::new(seed),
            next_id: 0,
            slow_id: 0,
            round: 0,
            reference: UnionReference::new(2),
        }
    }
}

impl RoundGen for UnionGen {
    fn next_round(&mut self) -> Round {
        let mut fast = Vec::with_capacity(ROUND_TUPLES as usize);
        let mut last = 0;
        for _ in 0..ROUND_TUPLES {
            let id = self.next_id;
            self.next_id += 1;
            let ts = (id as u64 + 1) * 2;
            let v = self.rng.below(1000) as i64;
            self.reference.push(0, URow { ts, id, v });
            fast.push(row2(ts, id, v));
            last = ts;
        }
        self.round += 1;
        let single = self.round.is_multiple_of(SLOW_EVERY_ROUNDS).then(|| {
            let id = self.slow_id;
            self.slow_id += 1;
            let ts = last - ROUND_TUPLES - 1; // odd, mid-round
            let v = self.rng.below(1000) as i64;
            self.reference.push(1, URow { ts, id, v });
            row2(ts, id, v)
        });
        self.reference.drain_upto(last);
        Round {
            clock_to: last,
            batches: [fast, Vec::new()],
            single,
            heartbeat: false,
        }
    }

    fn finish(mut self) -> Checksum {
        self.reference.drain_upto(u64::MAX);
        self.reference.expected
    }
}

/// `engine_join_window` input: sides alternate, one tuple per microsecond,
/// keys Zipf over [`JOIN_KEYS`]; both sources are heartbeated once per
/// window so the join purges on punctuation.
pub struct JoinGen {
    rng: Rng,
    zipf: Arc<Zipf>,
    next: u64,
    round: u64,
    reference: JoinReference,
}

impl JoinGen {
    pub fn new(seed: u64, zipf: Arc<Zipf>) -> Self {
        JoinGen {
            rng: Rng::new(seed),
            zipf,
            next: 0,
            round: 0,
            reference: JoinReference::new(JOIN_WINDOW_US),
        }
    }
}

impl RoundGen for JoinGen {
    fn next_round(&mut self) -> Round {
        let half = (ROUND_TUPLES / 2) as usize;
        let mut batches = [Vec::with_capacity(half), Vec::with_capacity(half)];
        let mut last = 0;
        for _ in 0..ROUND_TUPLES {
            let n = self.next;
            self.next += 1;
            let side = (n % 2) as usize;
            let ts = n + 1;
            let key = self.zipf.sample(&mut self.rng);
            let id = (n / 2) as i64;
            self.reference.push(side, ts, key, id);
            batches[side].push(row2(ts, key, id));
            last = ts;
        }
        self.round += 1;
        Round {
            clock_to: last,
            batches,
            single: None,
            heartbeat: self.round.is_multiple_of(JOIN_WINDOW_US / ROUND_TUPLES),
        }
    }

    fn finish(self) -> Checksum {
        self.reference.expected
    }
}

/// A planned query on a serial executor plus its checking sink.
pub struct Rig {
    pub exec: Executor,
    pub sources: [SourceId; 2],
    pub sink: CheckSink,
}

impl Rig {
    pub fn plan(program: &str, policy: EtsPolicy) -> Rig {
        let sink = CheckSink::default();
        let planned = plan_program(program, sink.clone()).expect("benchmark query plans");
        let sources = [planned.sources[0].id, planned.sources[1].id];
        let exec = Executor::new(
            planned.graph,
            VirtualClock::shared(),
            CostModel::free(),
            policy,
        );
        Rig {
            exec,
            sources,
            sink,
        }
    }

    /// Everything of a round that precedes the scheduler: clock, batches,
    /// the sparse tuple, heartbeats.
    #[inline]
    fn ingest(&mut self, round: Round) {
        let at = Timestamp::from_micros(round.clock_to);
        self.exec.clock().advance_to(at);
        let [a, b] = round.batches;
        self.exec
            .ingest_batch(self.sources[0], a)
            .expect("ingest_batch");
        self.exec
            .ingest_batch(self.sources[1], b)
            .expect("ingest_batch");
        if let Some(t) = round.single {
            self.exec.ingest(self.sources[1], t).expect("ingest");
        }
        if round.heartbeat {
            for s in self.sources {
                self.exec.ingest_heartbeat(s, at).expect("heartbeat");
            }
        }
    }

    #[inline]
    fn run(&mut self) {
        self.exec
            .run_until_quiescent(RUN_BUDGET)
            .expect("run_until_quiescent");
    }

    /// Hands one round to the engine and runs it dry (untimed: warm-up
    /// and tail).
    fn feed(&mut self, round: Round) {
        self.ingest(round);
        self.run();
    }

    fn close(&mut self) {
        for s in self.sources {
            self.exec.close_source(s).expect("close_source");
        }
        self.run();
    }
}

/// Which in-engine workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    UnionEts,
    JoinWindow,
}

impl EngineKind {
    fn program(self) -> &'static str {
        match self {
            EngineKind::UnionEts => UNION_PROGRAM,
            EngineKind::JoinWindow => JOIN_PROGRAM,
        }
    }

    fn policy(self) -> EtsPolicy {
        match self {
            EngineKind::UnionEts => EtsPolicy::on_demand(),
            // Both join inputs advance every round, so nothing starves;
            // punctuation comes from the per-window heartbeats.
            EngineKind::JoinWindow => EtsPolicy::None,
        }
    }

    fn warmup_rounds(self) -> u64 {
        match self {
            EngineKind::UnionEts => UNION_WARMUP_ROUNDS,
            EngineKind::JoinWindow => JOIN_WARMUP_ROUNDS,
        }
    }

    /// Set-up repetitions the reported `setup_s` is the median of.
    pub fn setup_reps(self) -> usize {
        match self {
            EngineKind::UnionEts => 7,
            EngineKind::JoinWindow => 3,
        }
    }
}

/// Everything one in-engine run measured.
pub struct EngineOutcome {
    pub setup_s: f64,
    pub setup_reps: usize,
    /// Per-slice tuples per engine-second, slices run without spans.
    pub thr_plain: Vec<f64>,
    /// Same for slices run with spans on (traced run only).
    pub thr_traced: Vec<f64>,
    pub lat_p50_ms: Vec<f64>,
    pub lat_p90_ms: Vec<f64>,
    pub cpu_s_per_mtuple: f64,
    pub measured_tuples: u64,
    pub total_tuples: u64,
    /// Input tuples and result rows of the warm-up (windows still filling).
    pub warm_tuples: u64,
    pub warm_rows: u64,
    pub expected: Checksum,
    pub got: Checksum,
    pub out_of_order: u64,
    pub stats: ExecStats,
    pub peak_queue_tuples: u64,
    pub punct_enqueued: u64,
    pub punct_coalesced: u64,
    /// Engine time inside `ingest*` / `run_until_quiescent` over the
    /// measured slices, nanoseconds.
    pub ingest_ns: u64,
    pub run_ns: u64,
}

/// Runs one in-engine workload for `seconds` of wall time (whole slices).
/// With a tracer, odd slices record spans and even slices do not, so one
/// run yields both the layer timings and the tracing overhead.
pub fn run(
    kind: EngineKind,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    tracer: Option<&mut Tracer>,
) -> EngineOutcome {
    match kind {
        EngineKind::UnionEts => run_with(kind, UnionGen::new, seed, seconds, setup_reps, tracer),
        EngineKind::JoinWindow => {
            let zipf = Arc::new(Zipf::new(JOIN_KEYS, JOIN_ZIPF_S));
            let make = move |seed| JoinGen::new(seed, Arc::clone(&zipf));
            run_with(kind, make, seed, seconds, setup_reps, tracer)
        }
    }
}

fn run_with<G: RoundGen>(
    kind: EngineKind,
    make: impl Fn(u64) -> G,
    seed: u64,
    seconds: f64,
    reps: usize,
    tracer: Option<&mut Tracer>,
) -> EngineOutcome {
    // Set-up: plan, build the executor, warm up. Repeated; all but the
    // last instance are dropped before the next is built.
    let reps = reps.max(1);
    let mut setup_times = Vec::with_capacity(reps);
    for rep in 0..reps - 1 {
        let mut gen = make(seed.wrapping_add(1000 + rep as u64));
        let t0 = Instant::now();
        let mut rig = Rig::plan(kind.program(), kind.policy());
        for _ in 0..kind.warmup_rounds() {
            rig.feed(gen.next_round());
        }
        setup_times.push(t0.elapsed().as_secs_f64());
        drop(rig);
    }
    let mut gen = make(seed);
    let t0 = Instant::now();
    let mut rig = Rig::plan(kind.program(), kind.policy());
    for _ in 0..kind.warmup_rounds() {
        rig.feed(gen.next_round());
    }
    setup_times.push(t0.elapsed().as_secs_f64());
    let warm_tuples = kind.warmup_rounds() * ROUND_TUPLES;
    let warm_rows = rig.sink.got().rows;

    // The generator thread runs ahead of the engine by a few rounds.
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<Round>(8);
    let producer = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if tx.send(gen.next_round()).is_err() {
                        break;
                    }
                }
                drop(tx);
                gen.finish()
            })
            .expect("spawn generator")
    };

    let measured = measure(&mut rig, &rx, &stop, seconds, tracer);
    // Rounds the generator had already queued when it was told to stop.
    let mut tail_rounds = 0u64;
    for round in rx.iter() {
        rig.feed(round);
        tail_rounds += 1;
    }
    rig.close();
    let expected = producer.join().expect("generator thread");

    let tracker = Arc::clone(rig.exec.graph().tracker());
    let measured_tuples = measured.slices * ROUNDS_PER_SLICE * ROUND_TUPLES;
    EngineOutcome {
        setup_s: stats::median(&setup_times).expect("set-up ran"),
        setup_reps: reps,
        thr_plain: measured.thr_plain,
        thr_traced: measured.thr_traced,
        lat_p50_ms: measured.lat_p50_ms,
        lat_p90_ms: measured.lat_p90_ms,
        cpu_s_per_mtuple: measured.cpu_ns as f64 / 1e9 / (measured_tuples as f64 / 1e6),
        measured_tuples,
        total_tuples: warm_tuples + measured_tuples + tail_rounds * ROUND_TUPLES,
        warm_tuples,
        warm_rows,
        expected,
        got: rig.sink.got(),
        out_of_order: rig.sink.out_of_order(),
        stats: rig.exec.stats(),
        peak_queue_tuples: tracker.peak() as u64,
        punct_enqueued: tracker.punctuation_enqueued(),
        punct_coalesced: tracker.coalesced(),
        ingest_ns: measured.ingest_ns,
        run_ns: measured.run_ns,
    }
}

struct Measured {
    slices: u64,
    thr_plain: Vec<f64>,
    thr_traced: Vec<f64>,
    lat_p50_ms: Vec<f64>,
    lat_p90_ms: Vec<f64>,
    cpu_ns: u64,
    ingest_ns: u64,
    run_ns: u64,
}

fn measure(
    rig: &mut Rig,
    rx: &Receiver<Round>,
    stop: &AtomicBool,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Measured {
    let mut m = Measured {
        slices: 0,
        thr_plain: Vec::new(),
        thr_traced: Vec::new(),
        lat_p50_ms: Vec::new(),
        lat_p90_ms: Vec::new(),
        cpu_ns: 0,
        ingest_ns: 0,
        run_ns: 0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cpu0 = proc::thread_cpu_ns();
    let mut round_ms = Vec::with_capacity(ROUNDS_PER_SLICE as usize);
    let mut batch = 0u64;
    // One code path for both kinds of slice: with the tracer off, `open`
    // and `close` return at once.
    let traced_run = tracer.is_some();
    let mut off = Tracer::new(false);
    let tracer = tracer.unwrap_or(&mut off);
    loop {
        let spans_on = traced_run && m.slices % 2 == 1;
        tracer.set_enabled(spans_on);
        let mut busy = Duration::ZERO;
        round_ms.clear();
        for _ in 0..ROUNDS_PER_SLICE {
            let round = rx.recv().expect("generator outlives measurement");
            batch += 1;
            let root = tracer.open("round", None, batch);
            let span = tracer.open("exec.ingest_batch", Some(root), batch);
            let t0 = Instant::now();
            rig.ingest(round);
            let ingest = t0.elapsed();
            tracer.close(span);
            let span = tracer.open("exec.run_until_quiescent", Some(root), batch);
            let t1 = Instant::now();
            rig.run();
            let run = t1.elapsed();
            tracer.close(span);
            tracer.close(root);
            m.ingest_ns += ingest.as_nanos() as u64;
            m.run_ns += run.as_nanos() as u64;
            busy += ingest + run;
            round_ms.push((ingest + run).as_secs_f64() * 1e3);
        }
        m.slices += 1;
        let thr = (ROUNDS_PER_SLICE * ROUND_TUPLES) as f64 / busy.as_secs_f64();
        if spans_on {
            m.thr_traced.push(thr);
        } else {
            m.thr_plain.push(thr);
        }
        let p = stats::percentiles(&mut round_ms, &[0.5, 0.9]).expect("rounds ran");
        m.lat_p50_ms.push(p[0]);
        m.lat_p90_ms.push(p[1]);
        if Instant::now() >= deadline {
            break;
        }
    }
    m.cpu_ns = proc::thread_cpu_ns() - cpu0;
    stop.store(true, Ordering::Relaxed);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<G: RoundGen>(kind: EngineKind, mut gen: G, rounds: u64) -> (Checksum, Checksum, u64) {
        let mut rig = Rig::plan(kind.program(), kind.policy());
        for _ in 0..rounds {
            rig.feed(gen.next_round());
        }
        rig.close();
        (gen.finish(), rig.sink.got(), rig.sink.out_of_order())
    }

    #[test]
    fn union_engine_output_equals_reference() {
        let (want, got, ooo) = drive(EngineKind::UnionEts, UnionGen::new(3), 450);
        assert_eq!(ooo, 0);
        assert_eq!(got, want);
        // 95 % of 112 500 fast tuples plus the two slow ones.
        assert!((105_000..109_000).contains(&got.rows), "{}", got.rows);
    }

    #[test]
    fn join_engine_output_equals_reference() {
        // A small key universe so a short run still produces matches.
        let zipf = Arc::new(Zipf::new(2_000, JOIN_ZIPF_S));
        let (want, got, ooo) = drive(EngineKind::JoinWindow, JoinGen::new(4, zipf), 40);
        assert_eq!(ooo, 0);
        assert!(got.rows > 1_000, "{}", got.rows);
        assert_eq!(got, want);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let ts = |g: &mut UnionGen| -> Vec<(u64, Vec<i64>)> {
            let r = g.next_round();
            r.batches[0]
                .iter()
                .map(|t| (t.ts.as_micros(), int_cols(t).collect()))
                .collect()
        };
        assert_eq!(ts(&mut UnionGen::new(5)), ts(&mut UnionGen::new(5)));
        assert_ne!(ts(&mut UnionGen::new(5)), ts(&mut UnionGen::new(6)));
    }
}
