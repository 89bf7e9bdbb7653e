//! Feedback-punctuation integration tests: upstream pressure propagation,
//! declared load shedding, and the parallel executor's lock-free pressure
//! surface.

use std::sync::{Arc, Mutex};

use millstream_exec::{
    CostModel, EtsPolicy, Executor, FeedbackConfig, GraphBuilder, Input, ParallelConfig,
    ParallelExecutor, PressureLevel, VirtualClock, Watermarks,
};
use millstream_ops::{Filter, Reorder, Sink, SinkCollector};
use millstream_types::{
    DataType, Expr, Field, Schema, TimeDelta, Timestamp, TimestampKind, Tuple, Value,
};

#[derive(Clone, Default)]
struct Out(Arc<Mutex<Vec<Tuple>>>);

impl SinkCollector for Out {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        self.0.lock().unwrap().push(tuple);
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

fn data(ts: u64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
}

/// source → σ → sink, with the sink collector returned for inspection.
fn build_chain() -> (millstream_exec::QueryGraph, millstream_exec::SourceId, Out) {
    let mut b = GraphBuilder::new();
    let s = b.source("S", schema(), TimestampKind::Internal);
    let f = b
        .operator(
            Box::new(Filter::new("σ", schema(), Expr::col(0).ge(Expr::lit(0)))),
            vec![Input::Source(s)],
        )
        .unwrap();
    let out = Out::default();
    b.operator(
        Box::new(Sink::new("sink", schema(), out.clone())),
        vec![Input::Op(f)],
    )
    .unwrap();
    (b.build().unwrap(), s, out)
}

/// Queue growth past the watermarks raises the source's published pressure
/// level; draining the queues restores it to Normal.
#[test]
fn pressure_rises_with_occupancy_and_recovers() {
    let (g, s, out) = build_chain();
    let mut exec = Executor::new(
        g,
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    )
    .with_feedback(FeedbackConfig::new(Watermarks::new(4, 8)));
    assert_eq!(exec.source_pressure(s), PressureLevel::Normal);

    for i in 0..6u64 {
        exec.ingest(s, data(i)).unwrap();
    }
    // Zero-step "run": no execution, just a feedback sweep over the queues.
    exec.run_until_quiescent(0).unwrap();
    assert_eq!(exec.source_pressure(s), PressureLevel::High);

    for i in 6..12u64 {
        exec.ingest(s, data(i)).unwrap();
    }
    exec.run_until_quiescent(0).unwrap();
    assert_eq!(exec.source_pressure(s), PressureLevel::Critical);

    exec.run_until_quiescent(u64::MAX).unwrap();
    assert_eq!(exec.source_pressure(s), PressureLevel::Normal);
    assert_eq!(out.0.lock().unwrap().len(), 12);
    assert_eq!(exec.stats().shed_tuples, 0);
}

/// With `shed` enabled, ingest under Critical pressure drops the tuple at
/// the source and counts it — never silently, never a punctuation.
#[test]
fn critical_pressure_sheds_declared_and_accounted() {
    let (g, s, out) = build_chain();
    let mut exec = Executor::new(
        g,
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    )
    .with_feedback(FeedbackConfig::new(Watermarks::new(2, 4)).with_shed(true));

    for i in 0..6u64 {
        exec.ingest(s, data(i)).unwrap();
    }
    exec.run_until_quiescent(0).unwrap();
    assert_eq!(exec.source_pressure(s), PressureLevel::Critical);

    // Under Critical: data is shed (accepted but counted, not enqueued)...
    for i in 6..11u64 {
        exec.ingest(s, data(i)).unwrap();
    }
    assert_eq!(exec.stats().shed_tuples, 5);
    assert_eq!(exec.graph().source(s).shed_tuples, 5);
    assert_eq!(exec.graph().source(s).ingested, 6);
    // ...but punctuation still flows: a heartbeat is never shed.
    exec.ingest_heartbeat(s, Timestamp::from_micros(100))
        .unwrap();

    exec.run_until_quiescent(u64::MAX).unwrap();
    // Only the pre-pressure tuples reach the sink; accounting reconciles.
    assert_eq!(out.0.lock().unwrap().len(), 6);
    assert_eq!(
        exec.graph().source(s).ingested + exec.graph().source(s).shed_tuples,
        11
    );
    // Queues drained, so pressure recovered and new data flows again.
    assert_eq!(exec.source_pressure(s), PressureLevel::Normal);
    exec.ingest(s, data(200)).unwrap();
    exec.run_until_quiescent(u64::MAX).unwrap();
    assert_eq!(out.0.lock().unwrap().len(), 7);
    assert_eq!(exec.stats().shed_tuples, 5);
}

/// Feedback with shedding off must not change output: pressure
/// signalling alone is non-semantic.
#[test]
fn advisory_feedback_is_output_invariant() {
    let run = |feedback: Option<FeedbackConfig>| {
        let mut b = GraphBuilder::new();
        let s = b.unordered_source("S", schema(), TimestampKind::External);
        let r = b
            .operator(
                Box::new(Reorder::new("↻", schema(), TimeDelta::from_micros(50))),
                vec![Input::Source(s)],
            )
            .unwrap();
        let out = Out::default();
        b.operator(
            Box::new(Sink::new("sink", schema(), out.clone())),
            vec![Input::Op(r)],
        )
        .unwrap();
        let mut exec = Executor::new(
            b.build().unwrap(),
            VirtualClock::shared(),
            CostModel::free(),
            EtsPolicy::None,
        );
        if let Some(cfg) = feedback {
            exec = exec.with_feedback(cfg);
        }
        for ts in [30u64, 10, 60, 40, 90, 20, 120, 80, 150, 110] {
            exec.ingest(s, data(ts)).unwrap();
            exec.run_until_quiescent(u64::MAX).unwrap();
        }
        exec.close_source(s).unwrap();
        exec.run_until_quiescent(u64::MAX).unwrap();
        let released: Vec<u64> = out
            .0
            .lock()
            .unwrap()
            .iter()
            .map(|t| t.ts.as_micros())
            .collect();
        released
    };
    let baseline = run(None);
    // Watermark of 1 keeps the signal permanently elevated — the harshest
    // advisory case — yet output must match the no-feedback baseline.
    let advisory = run(Some(FeedbackConfig::new(Watermarks::new(1, 1))));
    assert_eq!(baseline, advisory);
}

/// The parallel executor surfaces per-source pressure and shed accounting
/// across component boundaries, lock-free.
#[test]
fn parallel_pressure_and_shed_accounting() {
    // Two independent chains → two components.
    let mut b = GraphBuilder::new();
    let s1 = b.source("S1", schema(), TimestampKind::Internal);
    let s2 = b.source("S2", schema(), TimestampKind::Internal);
    let out1 = Out::default();
    let out2 = Out::default();
    let f1 = b
        .operator(
            Box::new(Filter::new("σ1", schema(), Expr::col(0).ge(Expr::lit(0)))),
            vec![Input::Source(s1)],
        )
        .unwrap();
    b.operator(
        Box::new(Sink::new("sink1", schema(), out1.clone())),
        vec![Input::Op(f1)],
    )
    .unwrap();
    let f2 = b
        .operator(
            Box::new(Filter::new("σ2", schema(), Expr::col(0).ge(Expr::lit(0)))),
            vec![Input::Source(s2)],
        )
        .unwrap();
    b.operator(
        Box::new(Sink::new("sink2", schema(), out2.clone())),
        vec![Input::Op(f2)],
    )
    .unwrap();

    let pex = ParallelExecutor::new(
        b.build().unwrap(),
        ParallelConfig::new(CostModel::free(), EtsPolicy::None, 2)
            .with_feedback(FeedbackConfig::new(Watermarks::new(2, 4)).with_shed(true)),
    );
    assert_eq!(pex.num_components(), 2);
    assert_eq!(pex.max_pressure(), PressureLevel::Normal);

    // Flood only S1; S2 stays calm.
    for i in 0..6u64 {
        pex.ingest(s1, data(i)).unwrap();
    }
    pex.ingest(s2, data(0)).unwrap();
    pex.run_until_quiescent(0).unwrap();
    assert_eq!(pex.source_pressure(s1), PressureLevel::Critical);
    assert_eq!(pex.source_pressure(s2), PressureLevel::Normal);
    assert_eq!(pex.max_pressure(), PressureLevel::Critical);
    assert!(pex.queued_total() >= 6);

    // Shed lands on S1 only, and the snapshot reconciles it per source.
    for i in 6..9u64 {
        pex.ingest(s1, data(i)).unwrap();
    }
    pex.barrier().unwrap();
    pex.run_until_quiescent(u64::MAX).unwrap();
    let snap = pex.snapshot().unwrap();
    assert_eq!(snap.shed_per_source, vec![3, 0]);
    assert_eq!(snap.ingested_per_source, vec![6, 1]);
    assert_eq!(snap.stats.shed_tuples, 3);
    assert_eq!(out1.0.lock().unwrap().len(), 6);
    assert_eq!(out2.0.lock().unwrap().len(), 1);
    assert_eq!(pex.max_pressure(), PressureLevel::Normal);
    assert_eq!(pex.queued_total(), 0);
}
