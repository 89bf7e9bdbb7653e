//! Loopback integration tests for the wire protocol: real sockets, the
//! `msq serve` engine host, and the `msq send` client machinery.

use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use millstream_buffer::CheckMode;
use millstream_net::{
    write_frame, ClientConfig, Frame, FrameReader, Role, Server, ServerConfig, ServerReport,
    StreamClient, Subscription, PROTOCOL_VERSION,
};
use millstream_types::{DataType, Field, Schema, Timestamp, Tuple, TupleBody, Value};

const UNION_PROGRAM: &str = "\
CREATE STREAM a (v INT);
CREATE STREAM b (v INT);
SELECT v FROM a UNION SELECT v FROM b;";

fn data(ts: u64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
}

fn client(addr: std::net::SocketAddr, stream: &str) -> StreamClient {
    StreamClient::connect(ClientConfig::new(addr.to_string(), stream)).expect("connect")
}

/// A bare socket past the handshake, for tests that need to see (or
/// write) the exact frames a client library would hide.
fn raw_connect(addr: std::net::SocketAddr, role: Role, stream: &str) -> (TcpStream, FrameReader) {
    let (raw, reader, _) = raw_hello(addr, role, stream);
    (raw, reader)
}

/// [`raw_connect`], also returning the server's `HelloAck`.
fn raw_hello(
    addr: std::net::SocketAddr,
    role: Role,
    stream: &str,
) -> (TcpStream, FrameReader, Frame) {
    let mut raw = TcpStream::connect(addr).expect("connect");
    write_frame(
        &mut raw,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            role,
            stream: stream.into(),
            schema: None,
            resume_hint: 0,
        },
    )
    .unwrap();
    let mut reader = FrameReader::new();
    let ack = reader.read_blocking(&mut raw).unwrap().expect("hello ack");
    assert!(matches!(ack, Frame::HelloAck { .. }), "{ack:?}");
    (raw, reader, ack)
}

/// Collects data tuples until end-of-stream; punctuation marks are
/// returned separately.
fn drain(sub: &mut Subscription) -> (Vec<u64>, usize) {
    let mut ts = Vec::new();
    let mut puncts = 0;
    while let Some(t) = sub.next(Duration::from_secs(10)).expect("subscription") {
        match t.body {
            TupleBody::Punctuation => puncts += 1,
            TupleBody::Data(_) => ts.push(t.ts.as_micros()),
        }
    }
    (ts, puncts)
}

#[test]
fn producers_and_subscriber_roundtrip() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
    assert_eq!(sub.schema().len(), 1, "negotiated output schema");

    let a = std::thread::spawn(move || {
        let mut c = client(addr, "a");
        assert_eq!(c.schema().expect("negotiated").len(), 1);
        for ts in [10u64, 30, 50, 70] {
            c.send(data(ts)).expect("send a");
        }
        c.close().expect("close a")
    });
    let b = std::thread::spawn(move || {
        let mut c = client(addr, "b");
        for ts in [20u64, 40, 60] {
            c.send(data(ts)).expect("send b");
        }
        c.close().expect("close b")
    });
    let ra = a.join().expect("thread a");
    let rb = b.join().expect("thread b");
    assert_eq!(ra.acked, ra.sent);
    assert_eq!(rb.acked, rb.sent);
    assert_eq!(ra.reconnects + rb.reconnects, 0);

    // Both sources closed: the union drains fully without the server
    // shutting down.
    let report = {
        // Wait for all 7 tuples at the subscriber, then shut down.
        let mut got = Vec::new();
        while got.len() < 7 {
            match sub.next(Duration::from_secs(10)).expect("output") {
                Some(t) if t.is_data() => got.push(t.ts.as_micros()),
                Some(_) => {}
                None => panic!("stream ended early: {got:?}"),
            }
        }
        assert_eq!(got, vec![10, 20, 30, 40, 50, 60, 70], "timestamp order");
        server.shutdown().expect("shutdown")
    };
    let (rest, puncts) = drain(&mut sub);
    assert!(rest.is_empty(), "no data after the drain: {rest:?}");
    assert_eq!(puncts, 1, "final ETS mark reaches the subscriber");

    assert_eq!(report.stats.tuples_ingested, 7);
    assert_eq!(report.stats.delivered, 7);
    assert_eq!(report.stats.duplicates_dropped, 0);
    assert_eq!(report.wire_sentinel_violations, 0);
    assert_eq!(report.latency.count, 7, "every delivery latency-attributed");
    assert!(report.ports.iter().all(|p| p.closed));
    let by_stream: Vec<(&str, u64)> = report
        .ports
        .iter()
        .map(|p| (p.stream.as_str(), p.ingested))
        .collect();
    assert_eq!(by_stream, vec![("a", 4), ("b", 3)]);
}

/// A silent producer's idle deadline synthesizes the heartbeat that
/// unblocks the union. `a` closes first, so no live port has a deadline
/// and the pump sleeps untimed: `b` attaching must wake it.
#[test]
fn idle_timeout_synthesizes_heartbeat_that_unblocks_the_union() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.idle_timeout = Some(Duration::from_millis(50));
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
    let mut a = client(addr, "a");
    for ts in [10u64, 20, 30] {
        a.send(data(ts)).expect("send");
    }
    a.close().expect("flush and close a");
    std::thread::sleep(Duration::from_millis(200));
    // `b` attaches and goes silent. Without heartbeat synthesis the union
    // would hold every `a` tuple forever: the subscriber sees all three
    // *without* `b` sending a byte, so only the synthesized heartbeat can
    // have released them.
    let _silent = client(addr, "b");
    let mut got = Vec::new();
    for _ in 0..3 {
        let t = sub
            .next(Duration::from_secs(10))
            .expect("idle heartbeat must unblock the union")
            .expect("stream still open");
        assert!(t.is_data());
        got.push(t.ts.as_micros());
    }
    assert_eq!(got, vec![10, 20, 30]);
    let stats = server.stats();
    assert!(
        stats.synthesized_heartbeats >= 1,
        "synthesis observed: {stats:?}"
    );
    assert_eq!(stats.tuples_ingested, 3);

    let report = server.shutdown().expect("shutdown");
    let b_port = report.ports.iter().find(|p| p.stream == "b").unwrap();
    assert!(b_port.synthesized >= 1, "{b_port:?}");
    // The silent source was marked network-starved.
    assert!(
        b_port.idle.idle_fraction > 0.0,
        "silent producer marked idle: {:?}",
        b_port.idle
    );
}

/// Line A of the paper on the wall clock, on the real server: with no
/// producer heartbeat and no idle synthesis, a silent peer holds the
/// union indefinitely; only its end-of-stream releases the held tuples.
#[test]
fn no_heartbeat_and_no_idle_synthesis_holds_the_union() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.idle_timeout = None;
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
    let silent = client(addr, "b");
    let mut a = client(addr, "a");
    for ts in [10u64, 20, 30] {
        a.send(data(ts)).expect("send");
    }
    // Acked = ingested: the stall below is the union's, not the wire's.
    a.flush().expect("flush");
    assert!(
        sub.next(Duration::from_millis(300)).is_err(),
        "nothing may pass the union while `b` is silent"
    );
    assert_eq!(server.stats().synthesized_heartbeats, 0);

    silent.close().expect("close b");
    let mut got = Vec::new();
    for _ in 0..3 {
        let t = sub
            .next(Duration::from_secs(10))
            .expect("closing `b` must release the union")
            .expect("stream still open");
        assert!(t.is_data());
        got.push(t.ts.as_micros());
    }
    assert_eq!(got, vec![10, 20, 30]);
    drop(a);
    server.shutdown().expect("shutdown");
}

#[test]
fn late_data_under_synthesized_mark_is_fatal_in_strict_mode() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.idle_timeout = Some(Duration::from_millis(40));
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut b = client(addr, "b");
    let mut a = client(addr, "a");
    a.send(data(1_000)).expect("send");
    // Wait until the server synthesized a heartbeat at b's expense.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().synthesized_heartbeats == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no synthesis happened"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // `b` broke the wire contract: silent past the idle timeout, then
    // data below the synthesized mark. Strict mode kills the connection
    // with an invariant error; the client does not silently retry.
    let err = b
        .send(data(5))
        .and_then(|()| b.flush())
        .expect_err("strict mode must refuse late data");
    let msg = err.to_string();
    assert!(
        msg.contains("punctuation-dominance") || msg.contains("Invariant"),
        "unexpected error: {msg}"
    );
    let report = server.shutdown().expect("shutdown");
    assert!(report.wire_sentinel_violations >= 1);
    assert_eq!(report.stats.tuples_ingested, 1, "late tuple never ingested");
}

/// Voluntary context switches of each live `msq-pump` thread in this
/// process, by thread id (empty off Linux).
fn pump_switches() -> HashMap<String, u64> {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
    let read = |t: &std::fs::DirEntry, f| std::fs::read_to_string(t.path().join(f)).ok();
    tasks
        .flatten()
        .filter(|t| read(t, "comm").is_some_and(|c| c.trim() == "msq-pump"))
        .filter_map(|t| {
            let status = read(&t, "status")?;
            let (_, rest) = status.split_once("\nvoluntary_ctxt_switches:")?;
            let n = rest.split_whitespace().next()?.parse().ok()?;
            Some((t.file_name().into_string().ok()?, n))
        })
        .collect()
}

/// Idle deadlines fire, at most once per timeout, and a port whose mark
/// would be stale does not spin the pump.
#[test]
fn idle_deadlines_fire_once_per_timeout_and_never_spin() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.idle_timeout = Some(Duration::from_millis(20));
    cfg.check = Some(CheckMode::Strict);
    // Other tests run servers in this process too: ours is a pump thread
    // that is new since the start (it names itself once it runs).
    let before = pump_switches();
    let server = Server::start(cfg).expect("server");
    let linux = cfg!(target_os = "linux");
    let named_by = Instant::now() + Duration::from_secs(2);
    let is_new = |t: &String| !before.contains_key(t);
    let mut found = !linux;
    while !found && Instant::now() < named_by {
        found = pump_switches().keys().any(is_new);
    }
    assert!(found, "pump thread not found");

    // `a` sends every 2 ms for 400 ms while `b` stays silent.
    let (_silent, mut a) = (client(server.addr(), "b"), client(server.addr(), "a"));
    let (start, mut ts) = (Instant::now(), 0);
    while start.elapsed() < Duration::from_millis(400) {
        ts += 1_000;
        a.send(data(ts)).expect("send");
        std::thread::sleep(Duration::from_millis(2));
    }
    a.flush().expect("flush");
    // Every producer is silent now: each port has at most one fresh mark
    // left, and after that every deadline finds a stale one.
    let quiet = pump_switches();
    std::thread::sleep(Duration::from_millis(200));
    // Ours lives until `shutdown`: a new pump present in both reads (another
    // test's may start or exit in between). Two such pumps mean which one
    // is ours is unknowable: skip the check.
    let end = pump_switches();
    let live: Vec<_> = end
        .keys()
        .filter(|t| is_new(t) && quiet.contains_key(*t))
        .collect();
    if let [tid] = live[..] {
        let woke = end[tid] - quiet[tid];
        assert!(woke <= 25, "a silent pump switched {woke} times in 200 ms");
    }

    // Ports report in DDL order: `b` is the second.
    let synthesized = server.shutdown().expect("shutdown").ports[1].synthesized;
    assert!(
        (2..=400 / 20 + 2).contains(&synthesized),
        "b synthesized {synthesized} times in 400 ms at a 20 ms timeout"
    );
}

#[test]
fn chaos_link_failure_resumes_without_loss_or_duplication() {
    const PROGRAM: &str = "CREATE STREAM s (v INT);\nSELECT v FROM s;";
    let mut cfg = ServerConfig::new(PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
    let mut c = StreamClient::connect({
        let mut cc = ClientConfig::new(addr.to_string(), "s");
        cc.ack_window = 4;
        cc
    })
    .expect("connect");
    // Sever the link twice mid-stream; the client must reconnect, resume
    // from the acked high-water and retransmit the rest.
    c.fail_link_after(7);
    let mut failed_again = false;
    for ts in 1..=40u64 {
        c.send(data(ts * 10)).expect("send survives link chaos");
        if ts == 20 && !failed_again {
            failed_again = true;
            c.fail_link_after(3);
        }
    }
    let report = c.close().expect("close");
    assert!(report.reconnects >= 2, "two severances: {report:?}");
    assert_eq!(report.sent, 41, "40 data + close");

    let srv_report = server.shutdown().expect("shutdown");
    let (got, _) = drain(&mut sub);
    let want: Vec<u64> = (1..=40).map(|t| t * 10).collect();
    assert_eq!(got, want, "exactly-once delivery across link failures");
    assert_eq!(srv_report.stats.tuples_ingested, 40);
    assert_eq!(srv_report.wire_sentinel_violations, 0);
    assert!(
        report.retransmitted + report.resume_skipped + srv_report.stats.duplicates_dropped > 0,
        "the chaos hook exercised the retransmission path: client {report:?}, server {:?}",
        srv_report.stats
    );
}

#[test]
fn handshake_rejections_are_structured() {
    let server = Server::start(ServerConfig::new(UNION_PROGRAM)).expect("server");
    let addr = server.addr();

    // Unknown stream.
    let err = StreamClient::connect(ClientConfig::new(addr.to_string(), "nope"))
        .expect_err("unknown stream");
    assert!(err.to_string().contains("unknown stream"), "{err}");

    // Schema mismatch.
    let mut cc = ClientConfig::new(addr.to_string(), "a");
    cc.schema = Some(millstream_types::Schema::new(vec![
        millstream_types::Field::new("v", millstream_types::DataType::Str),
    ]));
    let err = StreamClient::connect(cc).expect_err("schema mismatch");
    assert!(err.to_string().contains("schema mismatch"), "{err}");

    // Adopting the server schema works.
    let c = client(addr, "a");
    let schema = c.schema().expect("negotiated");
    assert_eq!(schema.fields()[0].name, "v");
    drop(c);
    server.shutdown().expect("shutdown");
}

#[test]
fn frame_order_violation_closes_the_connection() {
    let server = Server::start(ServerConfig::new(UNION_PROGRAM)).expect("server");
    let (mut raw, mut reader) = raw_connect(server.addr(), Role::Producer, "a");
    write_frame(
        &mut raw,
        &Frame::Data {
            seq: 5,
            tuple: data(10),
        },
    )
    .unwrap();
    assert!(matches!(
        reader.read_blocking(&mut raw).unwrap(),
        Some(Frame::Ack { seq: 5, .. })
    ));
    // Regressing the sequence number on the same connection is a hard
    // protocol error, reported before the connection closes.
    write_frame(
        &mut raw,
        &Frame::Data {
            seq: 5,
            tuple: data(20),
        },
    )
    .unwrap();
    match reader.read_blocking(&mut raw).unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(message.contains("frame order"), "{message}")
        }
        other => panic!("expected a frame-order error, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn wrong_width_row_is_refused_at_the_socket() {
    const JOIN_PROGRAM: &str = "\
CREATE STREAM l (k INT, id INT);
CREATE STREAM r (k INT, id INT);
SELECT * FROM l JOIN r ON l.k = r.k WINDOW 1 SECONDS;";
    let mut cfg = ServerConfig::new(JOIN_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    // A 0-column row on a 2-column stream used to reach the join and
    // panic the engine; it is a protocol error at the socket now.
    let (mut raw, mut reader) = raw_connect(addr, Role::Producer, "l");
    let empty: Vec<Value> = Vec::new();
    write_frame(
        &mut raw,
        &Frame::Data {
            seq: 1,
            tuple: Tuple::data(Timestamp::from_micros(5), empty),
        },
    )
    .unwrap();
    match reader.read_blocking(&mut raw).unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(message.contains("width"), "{message}");
            assert!(message.contains("0 column(s)"), "{message}");
            assert!(message.contains("has 2"), "{message}");
        }
        other => panic!("expected a row-width error, got {other:?}"),
    }
    drop(raw);

    // Well-formed producers still join afterwards.
    let row = |ts: u64, k: i64| {
        Tuple::data(
            Timestamp::from_micros(ts),
            vec![Value::Int(k), Value::Int(ts as i64)],
        )
    };
    let mut l = client(addr, "l");
    let mut r = client(addr, "r");
    l.send(row(10, 7)).expect("send l");
    r.send(row(20, 7)).expect("send r");
    l.close().expect("close l");
    r.close().expect("close r");
    let joined = loop {
        match sub.next(Duration::from_secs(10)).expect("output") {
            Some(t) if t.is_data() => break t,
            Some(_) => {}
            None => panic!("stream ended before the join matched"),
        }
    };
    assert_eq!(
        joined.ts.as_micros(),
        20,
        "the match carries the probe's timestamp"
    );
    assert_eq!(joined.width(), 4, "l's and r's columns, concatenated");
    server.shutdown().expect("shutdown");
    let (rest, _) = drain(&mut sub);
    assert!(rest.is_empty(), "one (7, 7) match only: {rest:?}");
}

#[test]
fn connection_counters_track_reaped_connections() {
    const PROGRAM: &str = "CREATE STREAM s (v INT);\nSELECT v FROM s;";
    let server = Server::start(ServerConfig::new(PROGRAM)).expect("server");
    let addr = server.addr();

    // Churn: producer and subscriber connections that come and go.
    for _ in 0..4 {
        drop(client(addr, "s"));
        drop(Subscription::connect(&addr.to_string()).expect("subscribe"));
    }
    // A live producer pushes output so any lingering subscriber writer
    // notices its dead socket and exits.
    let mut c = client(addr, "s");
    for i in 1..=5u64 {
        c.send(data(i * 10)).expect("send");
    }
    c.flush().expect("flush");

    // Every churned connection retires — the server reaps them while
    // running, not at shutdown — leaving only the live producer.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.conns_active == 1 {
            assert!(stats.connections >= 9, "churn counted: {stats:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connections never reaped: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    c.close().expect("close");
    server.shutdown().expect("shutdown");
}

/// Every delivered tuple is matched to a wire arrival and recorded in the
/// server's wire→sink latency summary.
#[test]
fn every_delivery_is_latency_attributed() {
    const PROGRAM: &str = "CREATE STREAM s (v INT);\nSELECT v FROM s;";
    let mut cfg = ServerConfig::new(PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
    let mut c = client(addr, "s");
    for i in 1..=32u64 {
        c.send(data(i * 10)).expect("send");
    }
    c.close().expect("close");
    let report = server.shutdown().expect("shutdown");
    let (got, _) = drain(&mut sub);
    assert_eq!(got.len(), 32);
    assert!(
        report.latency.count > 0,
        "deliveries latency-attributed: {:?}",
        report.latency
    );
}

/// Frames enter the engine through batched sections: the pump's
/// section counter is exposed and can never exceed the frame count (one
/// frame per section is the degenerate floor, never the other way round).
#[test]
fn ingest_sections_batch_frames() {
    const PROGRAM: &str = "CREATE STREAM s (v INT);\nSELECT v FROM s;";
    let mut cfg = ServerConfig::new(PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();

    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");
    let mut c = client(addr, "s");
    for i in 1..=64u64 {
        c.send(data(i * 10)).expect("send");
    }
    c.close().expect("close");
    let report = server.shutdown().expect("shutdown");
    let (got, _) = drain(&mut sub);
    assert_eq!(got.len(), 64);
    assert_eq!(report.stats.tuples_ingested, 64);
    assert!(report.stats.ingest_sections >= 1, "{:?}", report.stats);
    assert!(
        report.stats.ingest_sections <= report.stats.frames_in,
        "sections can never outnumber frames: {:?}",
        report.stats
    );
}

/// One strictly serialized two-producer script (every frame acked before
/// the next is sent, so every engine section holds exactly one frame and
/// the run is deterministic) against a server configured with `workers`.
/// Returns every byte a subscriber received after its handshake, and the
/// shutdown report.
fn serialized_script(workers: usize) -> (Vec<u8>, ServerReport) {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.workers = workers;
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let (mut sub, _) = raw_connect(addr, Role::Subscriber, "");
    let mut a = client(addr, "a");
    let mut b = client(addr, "b");
    for round in 0..40u64 {
        let ts = 100 * (round + 1);
        a.send(data(ts)).expect("send a");
        a.flush().expect("ack a");
        if round % 4 == 3 {
            // `b` is the sparse side: mostly heartbeats, some data.
            b.send(data(ts + 1)).expect("send b");
        } else {
            b.heartbeat(Timestamp::from_micros(ts + 1)).expect("hb b");
        }
        b.flush().expect("ack b");
    }
    a.close().expect("close a");
    b.close().expect("close b");
    let report = server.shutdown().expect("shutdown");
    let mut bytes = Vec::new();
    sub.read_to_end(&mut bytes).expect("subscriber stream");
    (bytes, report)
}

/// `ServerConfig::workers` has no effect: the hosted query is one
/// component on the pump thread whatever it says.
#[test]
fn workers_setting_changes_nothing() {
    let (bytes1, report1) = serialized_script(1);
    let (bytes4, report4) = serialized_script(4);
    assert_eq!(report1.stats.delivered, 50, "40 from a, 10 from b");
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes4, "subscriber streams differ");
    assert_eq!(report1.exec, report4.exec);
}

/// A frame refused when it is applied fails the connection that sent it
/// and no other: the peer producer's frames queued alongside are acked,
/// and the offender's own earlier frame keeps its ack.
#[test]
fn refused_frame_fails_only_its_own_connection() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    let mut b = client(addr, "b");
    b.send(data(20)).expect("send b");
    b.send(data(40)).expect("send b");
    // One write, three frames: good data, a DATA frame smuggling a
    // punctuation tuple (what `Executor::ingest` refuses), more data.
    let (mut raw, mut reader) = raw_connect(addr, Role::Producer, "a");
    let mut burst = Vec::new();
    for (seq, tuple) in [
        (1, data(10)),
        (2, Tuple::punctuation(Timestamp::from_micros(25))),
        (3, data(30)),
    ] {
        burst.extend(Frame::Data { seq, tuple }.encode().unwrap());
    }
    std::io::Write::write_all(&mut raw, &burst).unwrap();
    b.flush().expect("b's frames are acked");

    assert!(matches!(
        reader.read_blocking(&mut raw).unwrap(),
        Some(Frame::Ack { seq: 1, .. })
    ));
    match reader.read_blocking(&mut raw).unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(message.contains("carries punctuation"), "{message}")
        }
        other => panic!("expected the refusal, got {other:?}"),
    }
    let rb = b.close().expect("close b");
    assert_eq!(rb.acked, rb.sent);
    assert_eq!(rb.reconnects, 0);

    let report = server.shutdown().expect("shutdown");
    let (got, _) = drain(&mut sub);
    assert_eq!(
        got,
        vec![10, 20, 40],
        "frames after the refusal are dropped"
    );
    assert_eq!(report.stats.tuples_ingested, 3);
}

/// A producer that hangs up with frames still queued leaves its port
/// network-starved: its detach is applied after those frames, so none of
/// them can mark the port active again.
#[test]
fn hangup_with_frames_queued_leaves_the_port_idle() {
    let begun = Instant::now();
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let _a = client(addr, "a");
    // One write, 4 000 frames, then a hang-up without reading an ack.
    let (mut raw, _) = raw_connect(addr, Role::Producer, "b");
    let mut burst = Vec::new();
    for seq in 1..=4_000u64 {
        let frame = Frame::Data {
            seq,
            tuple: data(seq * 10),
        };
        burst.extend(frame.encode().unwrap());
    }
    std::io::Write::write_all(&mut raw, &burst).unwrap();
    drop(raw);
    let hung_up = Instant::now();
    std::thread::sleep(Duration::from_millis(300));
    let after = hung_up.elapsed().as_secs_f64();
    let report = server.shutdown().expect("shutdown");
    // `begun` precedes the server's start, so this overstates the port's
    // idle time only by the share of those few milliseconds.
    let idle = report.ports[1].idle.idle_fraction * begun.elapsed().as_secs_f64();
    assert!(
        idle >= 0.5 * after,
        "`b` idle {idle:.3} s of the {after:.3} s after its hang-up: {:?}",
        report.ports[1]
    );
}

/// With no skew allowance, a producer silent past the idle timeout
/// forfeits exactly the timestamps under the mark synthesized for it.
/// Outside strict mode each forfeit is counted, and accepted + rejected =
/// sent.
#[test]
fn silent_producer_forfeits_exactly_the_tuples_under_its_mark() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.idle_timeout = Some(Duration::from_millis(40));
    cfg.check = Some(CheckMode::Counters);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    let mut b = client(addr, "b");
    let mut a = client(addr, "a");
    a.send(data(1_000)).expect("send a");
    a.flush().expect("flush a");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().synthesized_heartbeats == 0 {
        assert!(Instant::now() < deadline, "no synthesis happened");
        std::thread::sleep(Duration::from_millis(5));
    }
    // `a`'s tuple passes the union only once `b` holds a mark at 1000.
    let first = loop {
        match sub.next(Duration::from_secs(10)).expect("output") {
            Some(t) if t.is_data() => break t.ts.as_micros(),
            Some(_) => {}
            None => panic!("stream ended early"),
        }
    };
    assert_eq!(first, 1_000);
    for ts in [500u64, 700, 900, 1_100, 1_300] {
        b.send(data(ts)).expect("send b");
    }
    b.flush().expect("every frame is acked, forfeits included");
    let report = server.shutdown().expect("shutdown");
    let (rest, _) = drain(&mut sub);
    assert_eq!(
        rest,
        vec![1_100, 1_300],
        "exactly the tuples above the mark"
    );
    assert_eq!(report.ports[1].rejected, 3, "{:?}", report.ports[1]);
    assert_eq!(report.stats.rejected_tuples, 3);
    assert_eq!(report.wire_sentinel_violations, 3);
    assert_eq!(report.stats.tuples_ingested, 3);
}

/// A port whose producer detached has no idle deadline, so nothing is
/// synthesized for it; a producer that re-attaches resumes from the
/// source's data high-water and brings synthesis back.
#[test]
fn detached_port_is_not_synthesized_until_a_producer_reattaches() {
    const TIMEOUT: Duration = Duration::from_millis(20);
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.idle_timeout = Some(TIMEOUT);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let mut a = client(addr, "a");

    let (mut raw, mut reader) = raw_connect(addr, Role::Producer, "b");
    let mut burst = Vec::new();
    for (seq, ts) in [(1, 10), (2, 20)] {
        burst.extend(
            Frame::Data {
                seq,
                tuple: data(ts),
            }
            .encode()
            .unwrap(),
        );
    }
    std::io::Write::write_all(&mut raw, &burst).unwrap();
    while !matches!(
        reader.read_blocking(&mut raw).unwrap(),
        Some(Frame::Ack { seq: 2, .. })
    ) {}
    drop(raw);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().conns_active > 1 {
        assert!(Instant::now() < deadline, "`b` never retired");
        std::thread::sleep(Duration::from_millis(2));
    }

    // `a` sends rising data, each tuple followed by a heartbeat at its
    // own timestamp: any mark for `b` would be fresh, and `a`'s own port
    // never has a fresh one to synthesize.
    let mut ts = 1_000;
    let mut tick = |a: &mut StreamClient, span: Duration| {
        let start = Instant::now();
        while start.elapsed() < span {
            ts += 1_000;
            a.send(data(ts)).expect("send a");
            a.heartbeat(Timestamp::from_micros(ts))
                .expect("heartbeat a");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    // Two timeouts for the detach to be applied, then five detached.
    tick(&mut a, 2 * TIMEOUT);
    let before = server.stats().synthesized_heartbeats;
    tick(&mut a, 5 * TIMEOUT);
    assert_eq!(
        server.stats().synthesized_heartbeats,
        before,
        "synthesized for a port with no producer"
    );

    let (_raw, _, ack) = raw_hello(addr, Role::Producer, "b");
    assert!(
        matches!(ack, Frame::HelloAck { resume_ts: 20, .. }),
        "{ack:?}"
    );
    let deadline = Instant::now() + 50 * TIMEOUT;
    while server.stats().synthesized_heartbeats == before {
        assert!(Instant::now() < deadline, "synthesis never resumed");
        tick(&mut a, TIMEOUT);
    }
    a.flush().expect("flush a");
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.ports[1].ingested, 2);
    assert!(report.ports[1].synthesized >= 1, "{:?}", report.ports[1]);
}

/// A join of two rows that each fit in a frame can output one that does
/// not (> `MAX_FRAME_LEN`). That output is lost to the wire, but declared:
/// the subscriber's drop ledger and `sub_shed` count it, the rows around
/// it arrive, and nothing fails.
#[test]
fn unencodable_output_is_declared_dropped() {
    // A wire string is at most 64 KiB, so a wide row takes ten of them.
    const COLUMNS: usize = 10;
    let columns: Vec<String> = (0..COLUMNS).map(|i| format!("s{i} STRING")).collect();
    let ddl = |stream: &str| format!("CREATE STREAM {stream} (k INT, {});", columns.join(", "));
    let program = format!(
        "{}\n{}\nSELECT * FROM l JOIN r ON l.k = r.k WINDOW 1 SECONDS;",
        ddl("l"),
        ddl("r")
    );
    let mut cfg = ServerConfig::new(program);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    // Key 2's rows are 600 KiB each, so their match is 1.2 MiB.
    let row = |ts: u64, k: i64| {
        let len = if k == 2 { 60 * 1024 } else { 8 };
        let mut values = vec![Value::Int(k)];
        values.extend((0..COLUMNS).map(|_| Value::str("x".repeat(len))));
        Tuple::data(Timestamp::from_micros(ts), values)
    };
    let mut l = client(addr, "l");
    for (ts, k) in [(10, 1), (30, 2), (50, 3)] {
        l.send(row(ts, k)).expect("send l");
    }
    l.close().expect("close l");
    let mut r = client(addr, "r");
    for (ts, k) in [(20, 1), (40, 2), (60, 3)] {
        r.send(row(ts, k)).expect("send r");
    }
    r.close().expect("close r");
    let report = server.shutdown().expect("shutdown");
    let (got, puncts) = drain(&mut sub);
    assert_eq!(got, vec![20, 60], "the matches of keys 1 and 3");
    assert_eq!(puncts, 1, "the final mark");
    assert_eq!(sub.dropped(), 1, "the key-2 match, declared");
    assert_eq!(report.stats.delivered, 3);
    assert_eq!(report.stats.sub_shed, 1);
}

/// What the final drain releases reaches a subscriber ahead of the
/// `Timestamp::MAX` mark. The union holds `a`'s tuples for the silent
/// `b` (no idle timeout), so only closing `b` at shutdown releases them.
#[test]
fn final_drain_outputs_precede_the_final_mark() {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    cfg.idle_timeout = None;
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    let b = client(addr, "b");
    let mut a = client(addr, "a");
    for ts in [10, 20, 30] {
        a.send(data(ts)).expect("send a");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().tuples_ingested < 3 {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.stats().delivered, 0, "the union waits for `b`");

    let shutdown = std::thread::spawn(move || server.shutdown());
    let mut got = Vec::new();
    while let Some(t) = sub.next(Duration::from_secs(10)).expect("subscription") {
        got.push((t.ts, t.is_data()));
    }
    let at = Timestamp::from_micros;
    assert_eq!(
        got,
        vec![
            (at(10), true),
            (at(20), true),
            (at(30), true),
            (Timestamp::MAX, false)
        ]
    );
    let report = shutdown.join().expect("shutdown thread").expect("shutdown");
    assert_eq!(report.stats.delivered, 3);
    drop((a, b));
}

/// Runs `body` on its own thread and fails the test if it does not finish
/// within `limit` — for client paths whose failure mode is a hang.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match finished.recv_timeout(limit) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the watched thread panicked"),
    }
}

/// A tuple the wire cannot carry (a 70 KiB string; a wire string is at
/// most 64 KiB) is refused by `send` at once, with an error, and is never
/// queued: the client neither reconnects nor retries it, and the same
/// session goes on delivering.
#[test]
fn oversized_string_is_refused_at_send_and_the_session_goes_on() {
    const PROGRAM: &str = "CREATE STREAM s (v STRING);\nSELECT v FROM s;";
    let mut cfg = ServerConfig::new(PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr();
    let mut sub = Subscription::connect(&addr.to_string()).expect("subscribe");

    let io_timeout = Duration::from_secs(2);
    let (refused, took, report) = within(io_timeout * 5, move || {
        let mut cc = ClientConfig::new(addr.to_string(), "s");
        cc.io_timeout = io_timeout;
        let mut c = StreamClient::connect(cc).expect("connect");
        let row = |ts: u64, s: String| {
            Tuple::data(Timestamp::from_micros(ts), vec![Value::str_uninterned(s)])
        };
        c.send(row(10, "before".into())).expect("send before");
        let started = Instant::now();
        let refused = c.send(row(20, "x".repeat(70 * 1024)));
        let took = started.elapsed();
        c.send(row(30, "after".into())).expect("send after");
        (refused, took, c.close().expect("close"))
    });
    let err = refused.expect_err("an unencodable tuple is refused");
    assert!(err.to_string().contains("exceeds u16 length"), "{err}");
    assert!(took < io_timeout, "refused after {took:?}");
    assert_eq!(
        report.sent, 3,
        "two data frames and the close; not the refused one"
    );
    assert_eq!(report.acked, 3);
    assert_eq!(report.reconnects, 0, "{report:?}");
    assert_eq!(report.retransmitted, 0, "{report:?}");

    let srv = server.shutdown().expect("shutdown");
    let (got, _) = drain(&mut sub);
    assert_eq!(got, vec![10, 30]);
    assert_eq!(srv.stats.tuples_ingested, 2);
    assert_eq!(srv.wire_sentinel_violations, 0);
}

/// A server that completes every handshake and then hangs up before
/// acking anything: the client gives up after `connect_retries` link
/// failures in a row, with an error, instead of reconnecting forever.
#[test]
fn a_link_that_never_acks_ends_the_session() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let mut reader = FrameReader::new();
            if !matches!(
                reader.read_blocking(&mut conn),
                Ok(Some(Frame::Hello { .. }))
            ) {
                continue;
            }
            let ack = Frame::HelloAck {
                version: PROTOCOL_VERSION,
                schema: Schema::new(vec![Field::new("v", DataType::Int)]),
                resume_ts: 0,
            };
            let _ = write_frame(&mut conn, &ack);
            // Dropping `conn` hangs up with the data unacked.
        }
    });
    let (result, report) = within(Duration::from_secs(20), move || {
        let mut cc = ClientConfig::new(addr.to_string(), "s");
        cc.connect_retries = 3;
        cc.backoff_seed = Some(1);
        let mut c = StreamClient::connect(cc).expect("connect");
        let sent = c.send(data(10));
        let result = sent.and_then(|()| c.flush());
        (result, c.report().clone())
    });
    let err = result.expect_err("the session ends");
    assert!(err.to_string().contains("no ack progress"), "{err}");
    assert_eq!(report.acked, 0);
    assert!(report.reconnects <= 3, "{report:?}");
}
