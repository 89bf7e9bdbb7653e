//! Loopback soaks: producer threads drive a real `msq serve` instance
//! over real sockets under `MILLSTREAM_CHECK=strict` wire sentinels, and
//! the subscriber's output must be **byte-identical** (frame-encoding
//! equality) to an in-process serial-executor oracle fed the same tuples.
//!
//! Two inputs share the oracle: three producers with injected
//! disconnects, delayed frames and retransmitted duplicates, and a
//! 256-producer fan-in that must also batch its ingest.
//!
//! The chaos is deterministic: link failures are injected by frame count
//! via [`StreamClient::fail_link_after`], so every run exercises the
//! reconnect → resume → retransmit → server-side dedup path.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use millstream_buffer::CheckMode;
use millstream_exec::{CostModel, EtsPolicy, Executor, VirtualClock};
use millstream_net::{ClientConfig, Frame, Server, ServerConfig, StreamClient, Subscription};
use millstream_ops::SinkCollector;
use millstream_query::plan_program;
use millstream_types::{Timestamp, Tuple, TupleBody, Value};

const STREAMS: usize = 3;
const TUPLES_PER_STREAM: u64 = 120;

/// The fan-in input: one producer connection per stream.
const FAN_IN_STREAMS: usize = 256;
const FAN_IN_TUPLES_PER_STREAM: u64 = 24;

/// `streams` INT streams `s0…` merged by one UNION.
fn program(streams: usize) -> String {
    let creates: String = (0..streams)
        .map(|s| format!("CREATE STREAM s{s} (v INT);\n"))
        .collect();
    let selects: Vec<String> = (0..streams)
        .map(|s| format!("SELECT v FROM s{s}"))
        .collect();
    format!("{creates}{};", selects.join(" UNION "))
}

/// Globally distinct, per-stream strictly increasing timestamps, so the
/// IWP union's output order is deterministic and the wire resume contract
/// (strictly increasing data timestamps per producer) holds.
fn ts_of(streams: usize, stream: usize, i: u64) -> u64 {
    (i * streams as u64 + stream as u64 + 1) * 10
}

fn tuple_of(streams: usize, stream: usize, i: u64) -> Tuple {
    Tuple::data(
        Timestamp::from_micros(ts_of(streams, stream, i)),
        vec![Value::Int((stream as i64) * 1_000_000 + i as i64)],
    )
}

/// The oracle's sink: records every data delivery in order.
#[derive(Clone, Default)]
struct VecSink(Arc<Mutex<Vec<Tuple>>>);

impl SinkCollector for VecSink {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        self.0.lock().unwrap().push(tuple);
    }
}

/// Runs the same program in-process through the serial executor, feeding
/// every tuple in global timestamp order (the order the union's ETS
/// discipline enforces at the output no matter how arrivals interleave).
fn oracle_output(streams: usize, per_stream: u64) -> Vec<Tuple> {
    let sink = VecSink::default();
    let planned = plan_program(&program(streams), sink.clone()).expect("plan oracle");
    let mut exec = Executor::new(
        planned.graph,
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    );
    let mut feed: Vec<(usize, u64)> = (0..streams)
        .flat_map(|s| (0..per_stream).map(move |i| (s, i)))
        .collect();
    feed.sort_by_key(|&(s, i)| ts_of(streams, s, i));
    for (s, i) in feed {
        let t = tuple_of(streams, s, i);
        exec.clock().advance_to(t.ts);
        exec.ingest(planned.sources[s].id, t)
            .expect("oracle ingest");
        exec.run_until_quiescent(u64::MAX).expect("oracle run");
    }
    for src in &planned.sources {
        exec.close_source(src.id).expect("oracle close");
    }
    exec.run_until_quiescent(u64::MAX).expect("oracle drain");
    let out = sink.0.lock().unwrap().clone();
    out.into_iter().filter(Tuple::is_data).collect()
}

/// Frame-encoding bytes for a tuple: the strongest equality the wire can
/// express — if these match, a subscriber literally received the same
/// bytes the oracle would have produced.
fn wire_bytes(tuple: &Tuple) -> Vec<u8> {
    Frame::Output {
        tuple: tuple.clone(),
    }
    .encode()
    .expect("encode")
}

/// Byte-identical to the oracle: same rows, same order, same encoding.
fn assert_matches_oracle(got: &[Tuple], streams: usize, per_stream: u64) {
    let oracle = oracle_output(streams, per_stream);
    assert_eq!(got.len(), oracle.len(), "row count matches the oracle");
    for (i, (network, local)) in got.iter().zip(&oracle).enumerate() {
        assert_eq!(
            wire_bytes(network),
            wire_bytes(local),
            "row {i}: wire bytes diverge (network {network}, oracle {local})"
        );
    }
}

#[test]
fn loopback_soak_matches_in_process_oracle() {
    let mut cfg = ServerConfig::new(program(STREAMS));
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    let mut threads = Vec::new();
    for s in 0..STREAMS {
        threads.push(std::thread::spawn(move || {
            let mut cc = ClientConfig::new(addr.to_string(), format!("s{s}"));
            // Small, per-thread-distinct windows keep frames in flight
            // across the injected link failures.
            cc.ack_window = 3 + s;
            let mut client = StreamClient::connect(cc).expect("connect");
            // Two deterministic link severances per producer, at
            // thread-distinct points in the stream.
            client.fail_link_after(10 + 3 * s as u64);
            let mut second_failure = false;
            for i in 0..TUPLES_PER_STREAM {
                if i == TUPLES_PER_STREAM / 2 + s as u64 && !second_failure {
                    second_failure = true;
                    client.fail_link_after(2);
                }
                if i % 40 == 7 {
                    // Delayed frames: a stalled producer must not corrupt
                    // ordering, only slow the union down.
                    std::thread::sleep(Duration::from_millis(3));
                }
                client.send(tuple_of(STREAMS, s, i)).expect("send");
            }
            client.close().expect("close")
        }));
    }
    let reports: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("producer thread"))
        .collect();
    for (s, r) in reports.iter().enumerate() {
        assert_eq!(
            r.sent,
            TUPLES_PER_STREAM + 1,
            "stream s{s}: every tuple plus the close handed to the client"
        );
        assert_eq!(r.acked, r.sent, "stream s{s}: everything acked");
        assert!(
            r.reconnects >= 2,
            "stream s{s}: both injected severances fired: {r:?}"
        );
    }

    // Collect the subscriber's stream: all data rows, then the final mark.
    let total = (STREAMS as u64 * TUPLES_PER_STREAM) as usize;
    let mut got = Vec::new();
    while got.len() < total {
        match sub.next(Duration::from_secs(30)).expect("subscription") {
            Some(t) if t.is_data() => got.push(t),
            Some(_) => {}
            None => panic!("stream ended early: {} of {total} rows", got.len()),
        }
    }
    let report = server.shutdown().expect("shutdown");
    let mut final_puncts = 0;
    while let Some(t) = sub.next(Duration::from_secs(10)).expect("drain") {
        match t.body {
            TupleBody::Punctuation => final_puncts += 1,
            TupleBody::Data(_) => panic!("data after the final drain: {t}"),
        }
    }
    assert!(final_puncts >= 1, "final ETS mark reaches the subscriber");

    assert_matches_oracle(&got, STREAMS, TUPLES_PER_STREAM);

    // The chaos actually happened — and the strict wire sentinels saw a
    // clean stream anyway.
    assert_eq!(report.stats.tuples_ingested, total as u64);
    assert_eq!(report.wire_sentinel_violations, 0, "strict sentinels clean");
    let retransmitted: u64 = reports.iter().map(|r| r.retransmitted).sum();
    let resumed: u64 = reports.iter().map(|r| r.resume_skipped).sum();
    assert!(
        retransmitted + resumed + report.stats.duplicates_dropped > 0,
        "the failure injection exercised retransmission: clients {reports:?}, server {:?}",
        report.stats
    );
    assert!(report.ports.iter().all(|p| p.closed), "all sources closed");
    assert_eq!(
        report.stats.delivered, total as u64,
        "every row delivered exactly once"
    );
}

/// 256 concurrent producers flood the nonblocking front-end: the output
/// must still match the oracle byte for byte with nothing dropped, and
/// the pump must batch at least 8 frames into each engine section.
#[test]
fn fan_in_soak_matches_oracle_and_batches_ingest() {
    let total = FAN_IN_STREAMS * FAN_IN_TUPLES_PER_STREAM as usize;
    let mut cfg = ServerConfig::new(program(FAN_IN_STREAMS));
    cfg.check = Some(CheckMode::Strict);
    cfg.io_threads = 4;
    // The byte-compare needs zero shedding: queue every output.
    cfg.subscriber_queue = total + 64;
    // Pacing would throttle the flood nondeterministically; the feedback
    // path has its own soak (feedback_soak.rs).
    cfg.feedback = None;
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    // The subscriber drains concurrently until the final ETS mark.
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
    let subscriber = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Some(t) = sub.next(Duration::from_secs(120)).expect("subscription") {
            if t.is_data() {
                got.push(t);
            }
        }
        assert_eq!(sub.dropped(), 0, "nothing shed");
        got
    });

    let gate = Arc::new(Barrier::new(FAN_IN_STREAMS));
    let producers: Vec<_> = (0..FAN_IN_STREAMS)
        .map(|s| {
            let gate = Arc::clone(&gate);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let mut cc = ClientConfig::new(addr.to_string(), format!("s{s}"));
                    // A small ack window keeps every producer in lockstep
                    // with the pump: an unbounded pipeline would land each
                    // connection's stream as one burst, so the UNION
                    // frontier could only move once the last port drained.
                    cc.ack_window = 8;
                    let mut client = StreamClient::connect(cc).expect("connect");
                    gate.wait();
                    for i in 0..FAN_IN_TUPLES_PER_STREAM {
                        let t = tuple_of(FAN_IN_STREAMS, s, i);
                        let ts = t.ts;
                        client.send(t).expect("send");
                        // Progress marks so output flows during the flood
                        // instead of only at the close wave.
                        if (i + 1) % 8 == 0 {
                            client.heartbeat(ts).expect("heartbeat");
                        }
                    }
                    client.close().expect("close")
                })
                .expect("spawn producer")
        })
        .collect();
    for p in producers {
        let r = p.join().expect("producer thread");
        assert_eq!(r.acked, r.sent, "every frame acked");
        assert_eq!(r.reconnects, 0, "no link chaos in this soak");
    }
    let report = server.shutdown().expect("shutdown");
    let got = subscriber.join().expect("subscriber thread");

    assert_matches_oracle(&got, FAN_IN_STREAMS, FAN_IN_TUPLES_PER_STREAM);
    assert_eq!(report.stats.tuples_ingested as usize, total);
    assert_eq!(report.stats.duplicates_dropped, 0);
    assert_eq!(report.stats.rejected_tuples, 0);
    assert_eq!(report.stats.sub_shed, 0);
    assert_eq!(report.stats.subscriber_overflows, 0);
    assert_eq!(report.wire_sentinel_violations, 0, "strict sentinels clean");

    let frames_per_section =
        report.stats.frames_in as f64 / report.stats.ingest_sections.max(1) as f64;
    assert!(
        frames_per_section >= 8.0,
        "ingest batching collapsed: {frames_per_section:.2} frames/section ({} frames, {} sections)",
        report.stats.frames_in,
        report.stats.ingest_sections
    );
}
