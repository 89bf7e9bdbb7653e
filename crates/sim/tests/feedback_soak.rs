//! Feedback soak: bursty producers × a stalled-then-slow subscriber over
//! real sockets, under `MILLSTREAM_CHECK=strict` wire sentinels and the
//! default shed policy.
//!
//! This is the overflow-disconnect bug's survival scenario: the
//! subscriber cannot keep up, the server's bounded queue fills, and the
//! run must end with the connection **alive**, the peak queue depth
//! bounded by configuration, every dropped tuple declared (server-side
//! `sub_shed` == the subscriber's cumulative drop notices, and
//! `received + dropped == produced` exactly), the survivors still in
//! timestamp order, the final `Timestamp::MAX` mark delivered, and zero
//! sentinel violations — no silent loss anywhere.

use std::time::Duration;

use millstream_buffer::CheckMode;
use millstream_net::{ClientConfig, Server, ServerConfig, StreamClient, Subscription};
use millstream_types::{Timestamp, Tuple, TupleBody, Value};

const STREAMS: usize = 3;
/// Per stream. Sized so the total (~57 MiB of wide tuples) overruns any
/// socket-buffer slack the kernel can grant a stalled subscriber, forcing
/// real queue overflow and shedding on every platform.
const TUPLES_PER_STREAM: u64 = 600;
const PAYLOAD: usize = 32 * 1024;
const QUEUE_CAP: usize = 64;

const PROGRAM: &str = "\
CREATE STREAM s0 (v STRING);
CREATE STREAM s1 (v STRING);
CREATE STREAM s2 (v STRING);
SELECT v FROM s0 UNION SELECT v FROM s1 UNION SELECT v FROM s2;";

/// Globally distinct, per-stream strictly increasing timestamps (the wire
/// resume contract), so survivor order at the sink is fully determined.
fn ts_of(stream: usize, i: u64) -> u64 {
    (i * STREAMS as u64 + stream as u64 + 1) * 10
}

fn tuple_of(stream: usize, i: u64) -> Tuple {
    let head = format!("{stream}:{i}:");
    let mut payload = String::with_capacity(PAYLOAD);
    payload.push_str(&head);
    while payload.len() < PAYLOAD {
        payload.push('x');
    }
    Tuple::data(
        Timestamp::from_micros(ts_of(stream, i)),
        vec![Value::str(payload)],
    )
}

#[test]
fn stalled_subscriber_survives_with_exact_drop_accounting() {
    let mut cfg = ServerConfig::new(PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    cfg.subscriber_queue = QUEUE_CAP;
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    // Subscribe, then stall: nothing is read until the flood is over.
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    let mut threads = Vec::new();
    for s in 0..STREAMS {
        threads.push(std::thread::spawn(move || {
            let mut cc = ClientConfig::new(addr.to_string(), format!("s{s}"));
            cc.ack_window = 8 + s;
            let mut client = StreamClient::connect(cc).expect("connect");
            for i in 0..TUPLES_PER_STREAM {
                if i % 64 == 11 {
                    // Bursty cadence: short stalls between bursts.
                    std::thread::sleep(Duration::from_millis(1));
                }
                client.send(tuple_of(s, i)).expect("send");
            }
            client.close().expect("close")
        }));
    }
    let reports: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("producer thread"))
        .collect();
    let total = STREAMS as u64 * TUPLES_PER_STREAM;
    for (s, r) in reports.iter().enumerate() {
        assert_eq!(
            r.sent,
            TUPLES_PER_STREAM + 1,
            "stream s{s}: all handed over"
        );
        assert_eq!(r.acked, r.sent, "stream s{s}: everything acked");
        assert_eq!(
            r.reconnects, 0,
            "stream s{s}: backpressure must not kill links"
        );
    }
    let mid = server.stats();
    assert_eq!(
        mid.tuples_ingested, total,
        "backpressure never drops producer data"
    );
    assert!(
        mid.sub_shed > 0,
        "a stalled subscriber behind a {QUEUE_CAP}-deep queue must shed: {mid:?}"
    );
    assert_eq!(
        mid.subscriber_overflows, 0,
        "shed policy keeps the subscriber"
    );
    assert!(
        mid.feedback_frames > 0,
        "sustained pressure must emit producer pacing frames: {mid:?}"
    );
    let paced: u64 = reports.iter().map(|r| r.feedback_frames).sum();
    assert!(
        paced > 0,
        "no producer observed a pacing frame: {reports:?}"
    );

    // Now drain slowly (the "slow subscriber" half of the soak) while the
    // server shuts down concurrently — the final mark and Bye only go out
    // once the broadcast finishes.
    let reader = std::thread::spawn(move || {
        let mut survivors: Vec<u64> = Vec::new();
        let mut marks = 0u64;
        while let Some(t) = sub.next(Duration::from_secs(30)).expect("subscription") {
            match t.body {
                TupleBody::Data(_) => survivors.push(t.ts.as_micros()),
                TupleBody::Punctuation => {
                    assert_eq!(t.ts, Timestamp::MAX, "only the final mark is expected");
                    marks += 1;
                }
            }
            if survivors.len().is_multiple_of(16) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        (survivors, marks, sub.dropped(), sub.feedback_frames())
    });
    let report = server.shutdown().expect("shutdown");
    let (survivors, marks, dropped, notices) = reader.join().expect("reader thread");

    // Exact accounting: every produced tuple was either received or
    // declared dropped — and both sides agree on the count.
    assert!(dropped > 0, "drops must be declared to the subscriber");
    assert!(notices > 0, "drop notices must actually arrive");
    assert_eq!(
        survivors.len() as u64 + dropped,
        total,
        "received + declared drops must reconcile with production"
    );
    assert_eq!(
        report.stats.sub_shed, dropped,
        "server shed accounting and client drop notices must agree"
    );
    assert_eq!(
        report.stats.subscriber_overflows, 0,
        "no disconnects on this path"
    );

    // Bounded by construction, and the survivors keep the order contract:
    // oldest-first shedding never reorders what remains.
    assert!(
        report.sub_peak_queue <= QUEUE_CAP,
        "peak queue {} exceeded its bound {QUEUE_CAP}",
        report.sub_peak_queue
    );
    assert!(
        survivors.windows(2).all(|w| w[0] < w[1]),
        "survivor timestamps must stay strictly increasing"
    );
    assert!(
        marks >= 1,
        "the final ETS mark reaches a shedding subscriber"
    );
    assert_eq!(report.wire_sentinel_violations, 0, "strict sentinels clean");
    assert!(report.ports.iter().all(|p| p.closed), "all sources closed");
}
