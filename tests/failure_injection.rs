//! Failure-injection integration tests: disorder, starvation without ETS,
//! degenerate workloads, punctuation-only streams, and error propagation
//! through the executor.

use std::sync::{Arc, Mutex};

use millstream_core::prelude::*;
use millstream_core::QueryRunner;

#[derive(Clone, Default)]
struct Out(Arc<Mutex<Vec<Tuple>>>);

impl SinkCollector for Out {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        let _ = now;
        self.0.lock().unwrap().push(tuple);
    }
}

fn small_graph(order: millstream_core::buffer::OrderPolicy) -> (Executor, SourceId, Out) {
    let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
    let mut b = GraphBuilder::new().with_order_policy(order);
    let s = b.source("s", schema.clone(), TimestampKind::External);
    let f = b
        .operator(
            Box::new(Filter::new("σ", schema.clone(), Expr::lit(true))),
            vec![Input::Source(s)],
        )
        .unwrap();
    let out = Out::default();
    b.operator(
        Box::new(Sink::new("sink", schema, out.clone())),
        vec![Input::Op(f)],
    )
    .unwrap();
    let exec = Executor::new(
        b.build().unwrap(),
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    );
    (exec, s, out)
}

fn t(ms: u64) -> Tuple {
    Tuple::data(Timestamp::from_millis(ms), vec![Value::Int(ms as i64)])
}

#[test]
fn out_of_order_reject_policy_errors() {
    let (mut exec, s, _) = small_graph(millstream_core::buffer::OrderPolicy::Reject);
    exec.ingest(s, t(100)).unwrap();
    let err = exec.ingest(s, t(50)).unwrap_err();
    assert!(matches!(err, Error::OutOfOrder { .. }));
    // The engine stays usable after the rejection.
    exec.ingest(s, t(150)).unwrap();
    exec.run_until_quiescent(1_000).unwrap();
}

#[test]
fn out_of_order_clamp_policy_repairs() {
    let (mut exec, s, out) = small_graph(millstream_core::buffer::OrderPolicy::Clamp);
    exec.ingest(s, t(100)).unwrap();
    exec.ingest(s, t(50)).unwrap();
    exec.run_until_quiescent(1_000).unwrap();
    let delivered = out.0.lock().unwrap();
    assert_eq!(delivered.len(), 2);
    assert_eq!(delivered[1].ts, delivered[0].ts, "clamped to the watermark");
}

#[test]
fn out_of_order_drop_policy_sheds() {
    let (mut exec, s, out) = small_graph(millstream_core::buffer::OrderPolicy::Drop);
    exec.ingest(s, t(100)).unwrap();
    exec.ingest(s, t(50)).unwrap();
    exec.ingest(s, t(150)).unwrap();
    exec.run_until_quiescent(1_000).unwrap();
    assert_eq!(
        out.0.lock().unwrap().len(),
        2,
        "the regressed tuple is shed"
    );
}

#[test]
fn zero_rate_stream_is_rejected_by_workload_validation() {
    let cfg = UnionExperiment {
        slow_rate_hz: 0.0,
        duration: TimeDelta::from_secs(1),
        ..UnionExperiment::default()
    };
    assert!(matches!(run_union_experiment(&cfg), Err(Error::Config(_))));
}

#[test]
fn starved_forever_without_ets_still_correct_on_flush() {
    // Strategy A with a permanently silent peer: results are late but
    // correct once the peer's watermark finally moves (failure recovery).
    let mut q = QueryRunner::new(
        "CREATE STREAM a (v INT);
         CREATE STREAM b (v INT);
         SELECT v FROM a UNION SELECT v FROM b;",
    )
    .unwrap();
    for i in 0..100u64 {
        q.push("a", 1_000 * i, vec![Value::Int(i as i64)]).unwrap();
    }
    let mut all = q.drain();
    assert!(all.len() <= 1, "virtually everything is blocked");
    all.extend(q.finish().unwrap());
    assert_eq!(all.len(), 100, "no loss, only delay");
    let vs: Vec<i64> = all
        .iter()
        .map(|t| t.values().unwrap()[0].as_int().unwrap())
        .collect();
    assert_eq!(vs, (0..100).collect::<Vec<i64>>(), "order preserved");
}

#[test]
fn punctuation_only_stream_unblocks_but_emits_nothing() {
    let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
    let mut b = GraphBuilder::new();
    let s1 = b.source("data", schema.clone(), TimestampKind::Internal);
    let s2 = b.source("quiet", schema.clone(), TimestampKind::Internal);
    let u = b
        .operator(
            Box::new(Union::new("∪", schema.clone(), 2)),
            vec![Input::Source(s1), Input::Source(s2)],
        )
        .unwrap();
    let out = Out::default();
    b.operator(
        Box::new(Sink::new("sink", schema, out.clone())),
        vec![Input::Op(u)],
    )
    .unwrap();
    let mut exec = Executor::new(
        b.build().unwrap(),
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    );
    // Only heartbeats on the quiet stream; data on the other.
    exec.clock().advance_to(Timestamp::from_millis(10));
    exec.ingest(s1, t(10)).unwrap();
    for ms in [20u64, 30, 40] {
        exec.clock().advance_to(Timestamp::from_millis(ms));
        exec.ingest_heartbeat(s2, Timestamp::from_millis(ms))
            .unwrap();
        exec.run_until_quiescent(10_000).unwrap();
    }
    let delivered = out.0.lock().unwrap();
    assert_eq!(delivered.len(), 1, "the data tuple came through");
    assert!(delivered[0].is_data());
}

#[test]
fn expression_error_surfaces_through_the_executor() {
    // A filter whose predicate divides by a column that is zero.
    let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
    let mut b = GraphBuilder::new();
    let s = b.source("s", schema.clone(), TimestampKind::Internal);
    let f = b
        .operator(
            Box::new(Filter::new(
                "σ",
                schema.clone(),
                Expr::lit(10).binary_div_by_col0().gt(Expr::lit(1)),
            )),
            vec![Input::Source(s)],
        )
        .unwrap();
    let out = Out::default();
    b.operator(
        Box::new(Sink::new("sink", schema, out.clone())),
        vec![Input::Op(f)],
    )
    .unwrap();
    let mut exec = Executor::new(
        b.build().unwrap(),
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    );
    exec.ingest(
        s,
        Tuple::data(Timestamp::from_millis(1), vec![Value::Int(0)]),
    )
    .unwrap();
    let mut saw_error = false;
    for _ in 0..10 {
        match exec.step() {
            Err(Error::Eval(_)) => {
                saw_error = true;
                break;
            }
            Ok(Activity::Quiescent) => break,
            _ => {}
        }
    }
    assert!(saw_error, "division by zero must surface as Error::Eval");
}

/// Helper to build `10 / #0` without polluting the main expression API.
trait DivByCol0 {
    fn binary_div_by_col0(self) -> Expr;
}

impl DivByCol0 for Expr {
    fn binary_div_by_col0(self) -> Expr {
        Expr::binary(millstream_core::types::BinOp::Div, self, Expr::col(0))
    }
}
