//! **BENCH_net** — async sharded ingest soak: wire→sink latency under
//! concurrent-producer fan-in, and the batching win of the ingest pump.
//!
//! Spawns one producer connection per stream (1024 full, 256 `--quick`)
//! against a `Server` hosting an N-way UNION, with a live subscriber
//! draining the output. Every producer pipelines its tuples through the
//! real wire protocol (handshake, acks, close), so the run exercises the
//! poller pool, the per-shard ingest queues, the batched engine critical
//! sections and the shared-slab fan-out end to end — with strict
//! sentinels on.
//!
//! Correctness gate: the subscriber's output is byte-compared (as encoded
//! `Output` frames) against a serial in-process oracle that ingests the
//! identical tuples through a plain `Executor` one at a time. Any drop,
//! duplicate or reorder fails the run. The headline perf figure is
//! **frames per engine critical section** (`frames_in / ingest_sections`,
//! must be ≥ 8 at the measured cell) plus the wire→sink p50/p95/p99 the
//! server's latency recorder attributes outside the engine lock.
//!
//! Writes `BENCH_net.json` via `write_bench_summary` (stamps
//! `host_cores`).

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use millstream_bench::{print_table, quick_mode, write_bench_summary};
use millstream_buffer::CheckMode;
use millstream_exec::{CostModel, EtsPolicy, Executor, GraphBuilder, Input, VirtualClock};
use millstream_metrics::{Json, ToJson};
use millstream_net::{ClientConfig, Frame, Server, ServerConfig, StreamClient, Subscription};
use millstream_ops::{Sink, SinkCollector, Union};
use millstream_types::{
    DataType, Field, Schema, Timestamp, TimestampKind, Tuple, TupleBody, Value,
};

#[derive(Clone, Default)]
struct Cap(Arc<Mutex<Vec<Tuple>>>);

impl SinkCollector for Cap {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        self.0.lock().unwrap().push(tuple);
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

/// Globally distinct, per-producer strictly increasing timestamps:
/// producer `p` sends `ts(p, 0) < ts(p, 1) < …`, and no two producers
/// ever share a timestamp, so the UNION's ts-ordered output is a single
/// deterministic sequence.
fn ts(producers: usize, p: usize, i: usize) -> u64 {
    ((i * producers + p) as u64 + 1) * 10
}

fn tuple_at(us: u64) -> Tuple {
    Tuple::data(Timestamp::from_micros(us), vec![Value::Int(us as i64)])
}

/// The serial oracle: the same tuples through an in-process `Executor`,
/// one `{advance, ingest, run}` step per tuple, in global timestamp
/// order. Returns the delivered tuples.
fn oracle(producers: usize, per_producer: usize) -> Vec<Tuple> {
    let mut b = GraphBuilder::new();
    let sources: Vec<_> = (0..producers)
        .map(|p| b.source(format!("s{p}"), schema(), TimestampKind::Internal))
        .collect();
    let u = b
        .operator(
            Box::new(Union::new("∪", schema(), producers)),
            sources.iter().map(|&s| Input::Source(s)).collect(),
        )
        .expect("union");
    let cap = Cap::default();
    b.operator(
        Box::new(Sink::new("sink", schema(), cap.clone())),
        vec![Input::Op(u)],
    )
    .expect("sink");
    let mut ex = Executor::new(
        b.build().expect("graph"),
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    );
    for i in 0..per_producer {
        for (p, &s) in sources.iter().enumerate() {
            let t = ts(producers, p, i);
            ex.clock().advance_to(Timestamp::from_micros(t));
            ex.ingest(s, tuple_at(t)).expect("oracle ingest");
            ex.run_until_quiescent(u64::MAX).expect("oracle run");
        }
    }
    for &s in &sources {
        ex.close_source(s).expect("oracle close");
    }
    ex.run_until_quiescent(u64::MAX).expect("oracle drain");
    let got = cap.0.lock().unwrap().clone();
    got
}

/// Encodes a delivered sequence exactly as the server's fan-out slab
/// encoder does, for the byte-for-byte comparison.
fn wire_bytes(tuples: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tuples {
        out.extend_from_slice(
            &Frame::Output { tuple: t.clone() }
                .encode()
                .expect("encode output"),
        );
    }
    out
}

fn program(producers: usize) -> String {
    let mut p = String::new();
    for i in 0..producers {
        p.push_str(&format!("CREATE STREAM s{i} (v INT);\n"));
    }
    let selects: Vec<String> = (0..producers)
        .map(|i| format!("SELECT v FROM s{i}"))
        .collect();
    p.push_str(&selects.join(" UNION "));
    p.push(';');
    p
}

fn main() {
    let quick = quick_mode();
    let producers: usize = if quick { 256 } else { 1024 };
    let per_producer: usize = if quick { 24 } else { 32 };
    let total = producers * per_producer;

    let mut cfg = ServerConfig::new(program(producers));
    cfg.check = Some(CheckMode::Strict);
    cfg.io_threads = 4;
    cfg.ingest_shards = 8;
    // The byte-compare needs zero shedding: queue every output.
    cfg.subscriber_queue = total + 64;
    // Pacing would throttle the flood nondeterministically; the feedback
    // path has its own soak (crates/net/tests/feedback.rs).
    cfg.feedback = None;
    let io_threads = cfg.io_threads;
    let ingest_shards = cfg.ingest_shards;
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    // Subscriber drains concurrently until the final ETS mark.
    let sub_thread = std::thread::spawn(move || {
        let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
        let mut got = Vec::new();
        while let Some(t) = sub.next(Duration::from_secs(120)).expect("subscription") {
            if matches!(t.body, TupleBody::Data(_)) {
                got.push(t);
            }
        }
        assert_eq!(sub.dropped(), 0, "undeclared-drop-free by construction");
        got
    });

    let started = Instant::now();
    let gate = Arc::new(Barrier::new(producers));
    let senders: Vec<_> = (0..producers)
        .map(|p| {
            let gate = Arc::clone(&gate);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let mut cc = ClientConfig::new(addr.to_string(), format!("s{p}"));
                    // A small ack window keeps every producer advancing in
                    // lockstep with the pump: an unbounded pipeline would
                    // land each connection's whole stream as one burst, so
                    // the UNION frontier (min over all sources) could only
                    // move once the *last* port drained — collapsing every
                    // delivery into the final engine section.
                    cc.ack_window = 8;
                    let mut c = StreamClient::connect(cc).expect("producer connect");
                    gate.wait();
                    for i in 0..per_producer {
                        let t = ts(producers, p, i);
                        c.send(tuple_at(t)).expect("send");
                        // Periodic progress marks so the UNION frontier
                        // advances (and output flows) *during* the flood
                        // instead of only at the close wave.
                        if (i + 1) % 8 == 0 {
                            c.heartbeat(Timestamp::from_micros(t)).expect("heartbeat");
                        }
                    }
                    c.close().expect("close")
                })
                .expect("spawn producer")
        })
        .collect();
    let mut sent = 0u64;
    let mut acked = 0u64;
    for h in senders {
        let r = h.join().expect("producer thread");
        sent += r.sent;
        acked += r.acked;
        assert_eq!(r.reconnects, 0, "no link chaos in this soak");
    }
    assert_eq!(acked, sent, "every frame acked");
    let report = server.shutdown().expect("shutdown");
    let wall = started.elapsed();
    let delivered = sub_thread.join().expect("subscriber thread");

    // Correctness: byte-identical to the serial oracle, zero drops.
    assert_eq!(delivered.len(), total, "every tuple delivered exactly once");
    let expect = oracle(producers, per_producer);
    assert_eq!(expect.len(), total);
    assert!(
        wire_bytes(&delivered) == wire_bytes(&expect),
        "wire output diverged from the serial oracle"
    );
    assert_eq!(report.stats.tuples_ingested as usize, total);
    assert_eq!(report.stats.duplicates_dropped, 0);
    assert_eq!(report.stats.rejected_tuples, 0);
    assert_eq!(report.stats.sub_shed, 0);
    assert_eq!(report.stats.subscriber_overflows, 0);
    assert_eq!(report.wire_sentinel_violations, 0);
    assert_eq!(report.latency_lock_violations, 0);

    // The batching win: frames per engine critical section.
    let sections = report.stats.ingest_sections.max(1);
    let frames_per_section = report.stats.frames_in as f64 / sections as f64;
    assert!(
        frames_per_section >= 8.0,
        "ingest batching collapsed: {:.2} frames/section ({} frames, {} sections)",
        frames_per_section,
        report.stats.frames_in,
        sections
    );

    let lat = &report.latency;
    print_table(
        &format!(
            "BENCH_net — {} producers × {} tuples ({})",
            producers,
            per_producer,
            if quick { "quick" } else { "full" }
        ),
        &[
            "frames",
            "sections",
            "frames/section",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "wall s",
        ],
        &[vec![
            report.stats.frames_in.to_string(),
            report.stats.ingest_sections.to_string(),
            format!("{frames_per_section:.1}"),
            format!("{:.3}", lat.p50_ms),
            format!("{:.3}", lat.p95_ms),
            format!("{:.3}", lat.p99_ms),
            format!("{:.2}", wall.as_secs_f64()),
        ]],
    );

    write_bench_summary(
        "net",
        Json::obj([
            ("mode", Json::str(if quick { "quick" } else { "full" })),
            ("producers", Json::Num(producers as f64)),
            ("tuples_per_producer", Json::Num(per_producer as f64)),
            ("io_threads", Json::Num(io_threads as f64)),
            ("ingest_shards", Json::Num(ingest_shards as f64)),
            ("frames_in", Json::Num(report.stats.frames_in as f64)),
            (
                "ingest_sections",
                Json::Num(report.stats.ingest_sections as f64),
            ),
            ("frames_per_section", Json::Num(frames_per_section)),
            ("delivered", Json::Num(report.stats.delivered as f64)),
            ("p50_ms", Json::Num(lat.p50_ms)),
            ("p95_ms", Json::Num(lat.p95_ms)),
            ("p99_ms", Json::Num(lat.p99_ms)),
            ("latency", lat.to_json()),
            ("oracle_match", Json::Bool(true)),
            ("wall_seconds", Json::Num(wall.as_secs_f64())),
        ]),
    );
}
