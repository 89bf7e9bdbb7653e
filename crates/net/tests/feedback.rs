//! Feedback-punctuation integration tests: the subscriber overflow
//! contract (satellite: no more silent cut-off before the final mark),
//! heartbeat pruning on reconnect, jittered backoff bounds, and the
//! shed-policy and engine-backlog pacing paths end to end over real
//! sockets.

use std::time::Duration;

use millstream_buffer::CheckMode;
use millstream_net::{
    backoff_delay, ClientConfig, OverflowPolicy, Server, ServerConfig, StreamClient, Subscription,
};
use millstream_types::{Timestamp, Tuple, TupleBody, Value};
use proptest::prelude::*;

/// A single identity query over wide string tuples, so a stalled
/// subscriber jams its socket (and then its bounded queue) quickly.
const STR_PROGRAM: &str = "\
CREATE STREAM s (v STRING);
SELECT v FROM s;";

const INT_PROGRAM: &str = "\
CREATE STREAM s (v INT);
SELECT v FROM s;";

const UNION_PROGRAM: &str = "\
CREATE STREAM a (v INT);
CREATE STREAM b (v INT);
SELECT v FROM a UNION SELECT v FROM b;";

/// ~16 KiB per tuple: a few hundred of these overrun any socket-buffer
/// slack the kernel grants a never-reading subscriber.
fn big(ts: u64) -> Tuple {
    Tuple::data(
        Timestamp::from_micros(ts),
        vec![Value::str("x".repeat(16 * 1024))],
    )
}

fn data(ts: u64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
}

/// Floods the server through `c` until `enough(stats)` holds (checked
/// every 32 sends) or the send budget runs out; returns how many tuples
/// were sent.
fn flood_until(
    c: &mut StreamClient,
    server: &Server,
    enough: impl Fn(&millstream_net::ServerStats) -> bool,
) -> u64 {
    let mut sent = 0u64;
    while sent < 4000 {
        sent += 1;
        c.send(big(sent * 10)).expect("send");
        if sent.is_multiple_of(32) && enough(&server.stats()) {
            break;
        }
    }
    sent
}

/// The fixed overflow-disconnect path: a subscriber that stalls past its
/// bounded queue is told how much it lost (cumulative drop notice), gets
/// the final `Timestamp::MAX` punctuation, and then a *structured*
/// Overflow error — never a bare socket close that loses the stream's
/// progress contract.
#[test]
fn overflow_disconnect_sends_notice_mark_and_error() {
    let mut cfg = ServerConfig::new(STR_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    cfg.subscriber_queue = 4;
    cfg.overflow = OverflowPolicy::Disconnect;
    let server = Server::start(cfg).expect("server");
    let addr = server.addr().to_string();

    // Subscribe but do not read: the writer jams, the queue fills.
    let mut sub = Subscription::connect(&addr).expect("subscribe");
    let mut c = StreamClient::connect(ClientConfig::new(&addr, "s")).expect("connect");
    let sent = flood_until(&mut c, &server, |s| s.subscriber_overflows >= 1);
    assert!(
        server.stats().subscriber_overflows >= 1,
        "subscriber never overflowed after {sent} wide tuples"
    );
    c.close().expect("producer close");

    // Now drain: the buffered prefix arrives intact, then the declared
    // cut-off — notice, final mark, structured error.
    let mut received: Vec<u64> = Vec::new();
    let mut final_mark = false;
    let err = loop {
        match sub.next(Duration::from_secs(10)) {
            Ok(Some(t)) => match t.body {
                TupleBody::Data(_) => {
                    assert!(!final_mark, "data after the final punctuation mark");
                    received.push(t.ts.as_micros());
                }
                TupleBody::Punctuation => {
                    assert_eq!(t.ts, Timestamp::MAX, "only the final mark is expected");
                    final_mark = true;
                }
            },
            Ok(None) => panic!("overflowed subscriber ended without the structured error"),
            Err(e) => break e,
        }
    };
    assert!(final_mark, "overflowed subscriber never got the final mark");
    let msg = err.to_string();
    assert!(msg.contains("Overflow"), "unexpected error: {msg}");
    assert!(sub.dropped() > 0, "the cut-off must declare its drop count");
    // The disconnect is a *cut*: everything before it is delivered or
    // declared dropped (zero silent loss), everything after it is
    // post-subscription. The delivered prefix must be exact and
    // contiguous — tuple i carries timestamp i*10 — and the declared
    // drops extend it to the cut point, never past what was produced.
    let prefix: Vec<u64> = (1..=received.len() as u64).map(|i| i * 10).collect();
    assert_eq!(
        received, prefix,
        "the pre-overflow prefix must arrive intact"
    );
    assert!(
        received.len() as u64 + sub.dropped() <= sent,
        "delivered + declared ({} + {}) cannot exceed production ({sent})",
        received.len(),
        sub.dropped()
    );

    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.stats.subscriber_overflows, 1);
    assert_eq!(report.stats.sub_shed, 0, "Disconnect policy never sheds");
    assert_eq!(report.wire_sentinel_violations, 0);
}

/// The default shed policy: a stalled subscriber stays connected, loses
/// only its oldest data (declared, exactly accounted), the queue stays
/// bounded, and the producer is paced by feedback frames.
#[test]
fn shed_policy_declares_drops_and_paces_producer() {
    let mut cfg = ServerConfig::new(STR_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    cfg.subscriber_queue = 8;
    let server = Server::start(cfg).expect("server");
    let addr = server.addr().to_string();

    let mut sub = Subscription::connect(&addr).expect("subscribe");
    let mut c = StreamClient::connect(ClientConfig::new(&addr, "s")).expect("connect");
    let sent = flood_until(&mut c, &server, |s| s.sub_shed >= 32);
    let mid = server.stats();
    assert!(mid.sub_shed >= 1, "no shedding after {sent} wide tuples");
    assert_eq!(
        mid.subscriber_overflows, 0,
        "shed policy must not disconnect"
    );
    let preport = c.close().expect("producer close");
    assert!(
        preport.feedback_frames >= 1,
        "producer never received a pacing feedback frame"
    );

    // Drain concurrently with shutdown: the final mark and Bye only go
    // out once the server finishes the broadcast.
    let reader = std::thread::spawn(move || {
        let mut received = 0u64;
        let mut marks = 0u64;
        while let Some(t) = sub.next(Duration::from_secs(10)).expect("subscription") {
            match t.body {
                TupleBody::Data(_) => received += 1,
                TupleBody::Punctuation => {
                    assert_eq!(t.ts, Timestamp::MAX);
                    marks += 1;
                }
            }
        }
        (received, marks, sub.dropped(), sub.feedback_frames())
    });
    let report = server.shutdown().expect("shutdown");
    let (received, marks, dropped, notices) = reader.join().expect("reader thread");

    assert!(dropped > 0, "sheds must be declared to the subscriber");
    assert!(notices >= 1, "no drop-notice feedback frame arrived");
    assert!(marks >= 1, "the final punctuation must still arrive");
    assert_eq!(
        received + dropped,
        sent,
        "declared drops must reconcile exactly with what was delivered"
    );
    assert_eq!(
        report.stats.sub_shed, dropped,
        "server/client drop accounting must agree"
    );
    assert_eq!(report.stats.subscriber_overflows, 0);
    assert!(
        report.stats.feedback_frames >= 1,
        "no producer pacing was recorded"
    );
    assert!(
        report.sub_peak_queue <= 8,
        "queue exceeded its bound: {}",
        report.sub_peak_queue
    );
    assert_eq!(report.wire_sentinel_violations, 0);
}

/// Runs the engine-backlog pacing script against a fresh `a ∪ b` server:
/// `b` attaches and stays silent, so the union holds every tuple `a`
/// sends; `a` sends 600 and flushes; then `b` closes, releasing the
/// backlog, and `a` sends one more. Returns `a`'s server window after
/// the 600 and after the one more, and the producer- and server-side
/// pacing frame counts.
fn backlog_pacing_script(pacing: bool) -> (Option<usize>, Option<usize>, u64, u64) {
    let mut cfg = ServerConfig::new(UNION_PROGRAM);
    if !pacing {
        cfg.feedback = None;
    }
    let server = Server::start(cfg).expect("server");
    let addr = server.addr().to_string();

    let b = StreamClient::connect(ClientConfig::new(&addr, "b")).expect("connect b");
    let mut acfg = ClientConfig::new(&addr, "a");
    acfg.ack_window = 32;
    let mut a = StreamClient::connect(acfg).expect("connect a");
    for i in 1..=600u64 {
        a.send(data(i * 10)).expect("send");
    }
    a.flush().expect("flush");
    let held = a.server_window();
    let client_frames = a.report().feedback_frames;
    let mid = server.stats();
    assert_eq!(mid.tuples_ingested, 600);

    b.close().expect("close b");
    a.send(data(6010)).expect("send after release");
    a.flush().expect("flush after release");
    let released = a.server_window();
    a.close().expect("close a");
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.stats.delivered, 601);
    (held, released, client_frames, mid.feedback_frames)
}

/// Producer pacing reads the engine's deepest operator input backlog: 600
/// tuples held by a union waiting on a silent peer exceed the default
/// high watermark (512), so the producer is narrowed to a window of 4,
/// and the window is lifted once the backlog drains. With pacing off,
/// nothing is ever announced.
#[test]
fn engine_backlog_paces_the_producer() {
    let (held, released, client_frames, server_frames) = backlog_pacing_script(true);
    assert_eq!(held, Some(4), "600 queued at the union is High pressure");
    assert!(client_frames >= 1, "the producer saw no pacing frame");
    assert!(server_frames >= 1, "the server counted no pacing frame");
    assert_eq!(released, None, "a drained backlog lifts the window");

    let (held, released, client_frames, server_frames) = backlog_pacing_script(false);
    assert_eq!((held, released), (None, None), "pacing off never narrows");
    assert_eq!((client_frames, server_frames), (0, 0));
}

/// A subscriber that never reads cannot hold shutdown: once its socket
/// and queue are full, the drain deadline drops it and `shutdown`
/// returns.
#[test]
fn shutdown_returns_with_a_subscriber_that_never_reads() {
    let mut cfg = ServerConfig::new(STR_PROGRAM);
    cfg.subscriber_queue = 8;
    let server = Server::start(cfg).expect("server");
    let addr = server.addr().to_string();

    let _stalled = Subscription::connect(&addr).expect("subscribe");
    let mut c = StreamClient::connect(ClientConfig::new(&addr, "s")).expect("connect");
    for i in 1..=2000u64 {
        c.send(big(i * 10)).expect("send");
    }
    c.close().expect("producer close");

    let (tx, rx) = std::sync::mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        let _ = tx.send(server.shutdown().map(|r| r.stats.sub_shed));
    });
    let shed = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("shutdown hung on a subscriber that never reads")
        .expect("shutdown");
    assert!(shed > 0, "the stalled subscriber's queue must have shed");
    shutdown.join().expect("shutdown thread");
}

/// A heartbeat at or below the server's resume point asserts nothing the
/// server doesn't already know: the reconnect path must prune it instead
/// of retransmitting it (the bug: only data frames were pruned).
#[test]
fn reconnect_prunes_heartbeats_below_resume_point() {
    let mut cfg = ServerConfig::new(INT_PROGRAM);
    cfg.check = Some(CheckMode::Strict);
    let server = Server::start(cfg).expect("server");
    let addr = server.addr().to_string();

    let mut ccfg = ClientConfig::new(&addr, "s");
    ccfg.backoff_seed = Some(7);
    let mut c = StreamClient::connect(ccfg).expect("connect");
    c.send(data(10)).expect("send");
    c.send(data(20)).expect("send");
    c.heartbeat(Timestamp::from_micros(30)).expect("heartbeat");
    c.send(data(40)).expect("send");
    // Everything acked: the server's resume point is now 40.
    c.flush().expect("flush");

    // Sever the link right after the next frame hits the wire: a
    // heartbeat at 35, already dominated by the acked high-water 40.
    c.fail_link_after(1);
    c.heartbeat(Timestamp::from_micros(35))
        .expect("heartbeat across reconnect");
    c.send(data(50)).expect("send after reconnect");
    let report = c.close().expect("close");

    assert_eq!(report.reconnects, 1);
    assert_eq!(
        report.resume_skipped, 1,
        "the stale heartbeat must be pruned against resume_ts"
    );
    assert_eq!(
        report.retransmitted, 0,
        "nothing at or below resume_ts may be retransmitted"
    );
    assert_eq!(report.sent, report.acked, "every frame must end accounted");

    let sreport = server.shutdown().expect("shutdown");
    assert_eq!(sreport.stats.tuples_ingested, 4);
    assert_eq!(sreport.stats.duplicates_dropped, 0);
    // The original heartbeat(35) write may or may not survive the severed
    // socket; a retransmission on the fresh connection would make it 2.
    assert!(
        sreport.stats.heartbeats_in <= 2,
        "stale heartbeat was retransmitted: {} heartbeats",
        sreport.stats.heartbeats_in
    );
    assert!(
        sreport.stats.heartbeats_in >= 1,
        "heartbeat(30) must arrive"
    );
    assert_eq!(sreport.wire_sentinel_violations, 0);
}

/// With zero jitter the schedule is the plain saturating doubling.
#[test]
fn backoff_nominal_schedule_without_jitter() {
    let base = Duration::from_millis(10);
    let max = Duration::from_secs(1);
    assert_eq!(backoff_delay(base, max, 1, 0), Duration::from_millis(10));
    assert_eq!(backoff_delay(base, max, 2, 0), Duration::from_millis(20));
    assert_eq!(backoff_delay(base, max, 5, 0), Duration::from_millis(160));
    assert_eq!(
        backoff_delay(base, max, 30, 0),
        max,
        "doubling saturates at max"
    );
}

/// Jitter pulls each delay uniformly into `[nominal/2, nominal]`.
#[test]
fn backoff_jitter_stays_within_half_nominal() {
    let base = Duration::from_millis(10);
    let max = Duration::from_secs(1);
    for jitter in [1u64, 7, 12_345, u64::MAX / 3, u64::MAX] {
        let d = backoff_delay(base, max, 3, jitter);
        assert!(
            d >= Duration::from_millis(20) && d <= Duration::from_millis(40),
            "attempt 3 with jitter {jitter}: {d:?} outside [20ms, 40ms]"
        );
    }
}

proptest! {
    /// The whole backoff schedule stays within `[base, max]` for any
    /// base/max/attempt/jitter combination — no sleep shorter than the
    /// floor, none past the ceiling, no overflow at large attempts.
    #[test]
    fn backoff_schedule_stays_bounded(
        base_ms in 1u64..100,
        extra_ms in 0u64..2000,
        attempt in 0u32..64,
        jitter in any::<u64>(),
    ) {
        let base = Duration::from_millis(base_ms);
        let max = base + Duration::from_millis(extra_ms);
        let d = backoff_delay(base, max, attempt, jitter);
        prop_assert!(d >= base, "{:?} below base {:?}", d, base);
        prop_assert!(d <= max, "{:?} above max {:?}", d, max);
    }
}
