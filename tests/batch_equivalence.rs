//! Differential order-equivalence suite for the batched Encore hot path.
//!
//! Batched execution (`ExecOptions::encore_batch` > 1) fuses consecutive
//! Encore steps of one batch-safe operator into a single scheduling
//! decision. The optimisation must be *observationally invisible*: for any
//! batch size, any ETS policy and any scheduling policy, the delivered
//! output sequence, the ETS traffic and the idle-waiting profile must be
//! identical to per-tuple execution.
//!
//! Two rigs are exercised — the paper's Fig. 4 union pipeline and a
//! symmetric window-join pipeline — each driven by the same deterministic
//! arrival schedule (data tuples, drop-runs for the filters, heartbeats,
//! and an end-of-stream drain).

use std::sync::{Arc, Mutex};

use millstream_core::prelude::*;

/// Shared sink collector recording `(tuple, delivery time)` pairs.
#[derive(Clone, Default)]
struct Out(Arc<Mutex<Vec<(Tuple, Timestamp)>>>);

impl SinkCollector for Out {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.0.lock().unwrap().push((tuple, now));
    }
}

/// Everything observable about one finished run, for differential
/// comparison against the per-tuple baseline.
#[derive(Debug, PartialEq)]
struct Observation {
    delivered: Vec<(Tuple, Timestamp)>,
    ets_generated: u64,
    steps: u64,
    work_units: u64,
    dropped_stale_heartbeats: u64,
    idle_total: TimeDelta,
    final_clock: Timestamp,
}

struct Rig {
    exec: Executor,
    s1: SourceId,
    s2: SourceId,
    monitored: NodeId,
    out: Out,
}

impl Rig {
    /// Enqueues a data tuple without running the executor, so waves of
    /// arrivals form real queues (the batched path is only interesting
    /// when Encore runs exist).
    fn push(&mut self, src: SourceId, ms: u64, v: i64) {
        self.exec.clock().advance_to(Timestamp::from_millis(ms));
        let ts = self.exec.clock().now();
        self.exec
            .ingest(src, Tuple::data(ts, vec![Value::Int(v)]))
            .unwrap();
    }

    /// Enqueues a heartbeat punctuation without running the executor.
    fn heartbeat(&mut self, src: SourceId, ms: u64) {
        self.exec.clock().advance_to(Timestamp::from_millis(ms));
        let ts = self.exec.clock().now();
        self.exec.ingest_heartbeat(src, ts).unwrap();
    }

    fn drain(&mut self) {
        self.exec.run_until_quiescent(1_000_000).unwrap();
    }

    fn finish(mut self) -> Observation {
        self.exec.close_source(self.s1).unwrap();
        self.exec.close_source(self.s2).unwrap();
        self.exec.run_until_quiescent(1_000_000).unwrap();
        self.exec.finish_idle();
        let stats = self.exec.stats();
        let idle_total = self
            .exec
            .idle_tracker(self.monitored)
            .map(|t| t.total_idle())
            .unwrap_or(TimeDelta::ZERO);
        Observation {
            delivered: self.out.0.lock().unwrap().clone(),
            ets_generated: stats.ets_generated,
            steps: stats.steps,
            work_units: stats.work_units,
            dropped_stale_heartbeats: stats.dropped_stale_heartbeats,
            idle_total,
            final_clock: self.exec.clock().now(),
        }
    }
}

/// The Fig. 4 pipeline: S1 → σ1, S2 → σ2, ∪, sink. The filters keep only
/// non-negative values, so runs of negative inputs become Encore drop-runs
/// that the batched path fuses.
fn fig4_rig(policy: EtsPolicy, sched: SchedPolicy, k: usize) -> Rig {
    let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
    let mut b = GraphBuilder::new();
    let s1 = b.source("S1", schema.clone(), TimestampKind::Internal);
    let s2 = b.source("S2", schema.clone(), TimestampKind::Internal);
    let f1 = b
        .operator(
            Box::new(Filter::new(
                "σ1",
                schema.clone(),
                Expr::col(0).ge(Expr::lit(0)),
            )),
            vec![Input::Source(s1)],
        )
        .unwrap();
    let f2 = b
        .operator(
            Box::new(Filter::new(
                "σ2",
                schema.clone(),
                Expr::col(0).ge(Expr::lit(0)),
            )),
            vec![Input::Source(s2)],
        )
        .unwrap();
    let u = b
        .operator(
            Box::new(Union::new("∪", schema.clone(), 2)),
            vec![Input::Op(f1), Input::Op(f2)],
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
        CostModel::default(),
        policy,
    )
    .with_sched_policy(sched)
    .with_encore_batch(k);
    exec.monitor_idle(u);
    Rig {
        exec,
        s1,
        s2,
        monitored: u,
        out,
    }
}

/// A window-join pipeline: S1 → σ1, S2 → σ2, ⋈ (2 s symmetric window,
/// equality key on column 0), sink. The join itself is not batch-safe, so
/// this rig checks that batching upstream filters never perturbs a
/// stateful, clock-sensitive downstream operator.
fn join_rig(policy: EtsPolicy, sched: SchedPolicy, k: usize) -> Rig {
    let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
    let joined = schema.join(&schema, "a", "b");
    let mut b = GraphBuilder::new();
    let s1 = b.source("A", schema.clone(), TimestampKind::Internal);
    let s2 = b.source("B", schema.clone(), TimestampKind::Internal);
    let f1 = b
        .operator(
            Box::new(Filter::new(
                "σ1",
                schema.clone(),
                Expr::col(0).ge(Expr::lit(0)),
            )),
            vec![Input::Source(s1)],
        )
        .unwrap();
    let f2 = b
        .operator(
            Box::new(Filter::new(
                "σ2",
                schema.clone(),
                Expr::col(0).ge(Expr::lit(0)),
            )),
            vec![Input::Source(s2)],
        )
        .unwrap();
    let join = MultiWindowJoin::new(
        "⋈",
        &[schema.clone(), schema.clone()],
        vec![TimeDelta::from_secs(2); 2],
        None,
    )
    .with_keys(vec![0, 0]);
    let j = b
        .operator(Box::new(join), vec![Input::Op(f1), Input::Op(f2)])
        .unwrap();
    let out = Out::default();
    b.operator(
        Box::new(Sink::new("sink", joined, out.clone())),
        vec![Input::Op(j)],
    )
    .unwrap();
    let mut exec = Executor::new(
        b.build().unwrap(),
        VirtualClock::shared(),
        CostModel::default(),
        policy,
    )
    .with_sched_policy(sched)
    .with_encore_batch(k);
    exec.monitor_idle(j);
    Rig {
        exec,
        s1,
        s2,
        monitored: j,
        out,
    }
}

/// One deterministic arrival schedule, shared by every run of a rig.
/// Arrivals come in waves of eight S1 tuples plus one S2 tuple, ingested
/// *before* the executor runs, so the filters face real queues:
/// * S1 speaks every 5 ms; two of every eight values are negative, so σ1
///   sees fusable Encore drop-runs;
/// * S2 speaks every 40 ms with mostly negative values (long drop-runs on
///   σ2, plus starvation waves at the merge operator);
/// * a heartbeat rides on S2 every other wave, immediately followed by a
///   duplicate at the same timestamp, exercising the staleness gate
///   identically in every run;
/// * both sources close at the end and the pipeline drains.
fn drive(mut rig: Rig) -> Observation {
    let (s1, s2) = (rig.s1, rig.s2);
    for i in 0u64..160 {
        let ms = 5 * i;
        let v = match i % 8 {
            3 | 4 => -(i as i64), // drop-run fodder for σ1
            _ => (i % 10) as i64, // small key domain → join matches
        };
        rig.push(s1, ms, v);
        if i % 8 == 7 {
            let v2 = if i % 16 == 7 { (i % 10) as i64 } else { -1 };
            rig.push(s2, ms + 1, v2);
            if i % 16 == 15 {
                // Fresh heartbeat, then a duplicate at the same timestamp
                // that the staleness gate must drop.
                rig.heartbeat(s2, ms + 2);
                rig.heartbeat(s2, ms + 2);
            }
            rig.drain();
        }
    }
    rig.finish()
}

const BATCH_SIZES: [usize; 2] = [8, 64];

fn policies() -> Vec<(EtsPolicy, SchedPolicy)> {
    let mut combos = Vec::new();
    for ets in [EtsPolicy::None, EtsPolicy::on_demand()] {
        for sched in [SchedPolicy::DepthFirst, SchedPolicy::RoundRobin] {
            combos.push((ets, sched));
        }
    }
    combos
}

fn assert_equivalent(
    rig: impl Fn(EtsPolicy, SchedPolicy, usize) -> Rig,
    expect_output: impl Fn(&Observation),
) {
    for (ets, sched) in policies() {
        let baseline = drive(rig(ets, sched, 1));
        expect_output(&baseline);
        for k in BATCH_SIZES {
            let batched = drive(rig(ets, sched, k));
            assert_eq!(
                batched.delivered, baseline.delivered,
                "output diverged at K={k} under {ets:?}/{sched:?}"
            );
            assert_eq!(
                batched.ets_generated, baseline.ets_generated,
                "ETS traffic diverged at K={k} under {ets:?}/{sched:?}"
            );
            assert_eq!(
                batched.steps, baseline.steps,
                "step count diverged at K={k} under {ets:?}/{sched:?}"
            );
            assert_eq!(
                batched.work_units, baseline.work_units,
                "work diverged at K={k} under {ets:?}/{sched:?}"
            );
            assert_eq!(
                batched.dropped_stale_heartbeats, baseline.dropped_stale_heartbeats,
                "staleness gate diverged at K={k} under {ets:?}/{sched:?}"
            );
            assert_eq!(
                batched.final_clock, baseline.final_clock,
                "virtual time diverged at K={k} under {ets:?}/{sched:?}"
            );
            // "No new idle-waiting": the batched run may never idle longer
            // than per-tuple execution (with identical costs it is exactly
            // equal, which the assertion also accepts).
            assert!(
                batched.idle_total <= baseline.idle_total,
                "idle-waiting grew at K={k} under {ets:?}/{sched:?}: \
                 {} > {}",
                batched.idle_total,
                baseline.idle_total,
            );
        }
    }
}

#[test]
fn fig4_union_batched_matches_per_tuple() {
    assert_equivalent(fig4_rig, |base| {
        // The schedule must actually exercise the interesting paths:
        // deliveries, drop-runs (fewer outputs than inputs) and the
        // staleness gate.
        assert!(
            base.delivered.len() >= 100,
            "only {} deliveries",
            base.delivered.len()
        );
        assert!(base.delivered.iter().all(|(t, _)| t.is_data()));
        assert!(base.dropped_stale_heartbeats >= 10);
        let ts: Vec<_> = base.delivered.iter().map(|(t, _)| t.ts).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted, "sink output must stay timestamp ordered");
    });
}

#[test]
fn window_join_batched_matches_per_tuple() {
    assert_equivalent(join_rig, |base| {
        assert!(
            base.delivered.len() >= 20,
            "only {} join results",
            base.delivered.len()
        );
        assert!(base.delivered.iter().all(|(t, _)| t.is_data()));
        // Joined rows are A ++ B with matching keys.
        for (t, _) in &base.delivered {
            let row = t.values_expect();
            assert_eq!(row.len(), 2);
            assert_eq!(row[0], row[1], "equality key must hold");
        }
    });
}

#[test]
fn batching_reduces_scheduling_decisions_under_dfs() {
    // Not an equivalence property but the point of the optimisation: at
    // K=64 the depth-first scheduler takes measurably fewer scheduling
    // decisions (batches) for the same number of operator steps.
    let base = drive_collect_batches(fig4_rig(EtsPolicy::on_demand(), SchedPolicy::DepthFirst, 1));
    let batched = drive_collect_batches(fig4_rig(
        EtsPolicy::on_demand(),
        SchedPolicy::DepthFirst,
        64,
    ));
    assert_eq!(base.0, batched.0, "same number of operator steps");
    assert!(
        batched.1 < base.1,
        "batching must reduce scheduling decisions: {} !< {}",
        batched.1,
        base.1
    );
}

/// Runs the standard schedule and returns `(steps, batches)`.
fn drive_collect_batches(mut rig: Rig) -> (u64, u64) {
    let (s1, s2) = (rig.s1, rig.s2);
    for i in 0u64..160 {
        let ms = 5 * i;
        let v = match i % 8 {
            3 | 4 => -(i as i64),
            _ => (i % 10) as i64,
        };
        rig.push(s1, ms, v);
        if i % 8 == 7 {
            rig.push(s2, ms + 1, -1);
            rig.drain();
        }
    }
    rig.exec.close_source(s1).unwrap();
    rig.exec.close_source(s2).unwrap();
    rig.drain();
    let stats = rig.exec.stats();
    (stats.steps, stats.batches)
}

#[test]
fn peak_join_state_is_sampled_and_bounded() {
    // The executor samples `Operator::state_tuples` after every charged
    // batch: the join node's profile carries a nonzero peak, the global
    // `peak_join_state` matches it, and the peak stays bounded by the
    // window (2 s at one S1 tuple per 5 ms plus the slower S2 side).
    let mut rig = join_rig(EtsPolicy::on_demand(), SchedPolicy::DepthFirst, 1);
    let (s1, s2) = (rig.s1, rig.s2);
    for i in 0u64..400 {
        rig.push(s1, 5 * i, (i % 10) as i64);
        if i % 8 == 7 {
            rig.push(s2, 5 * i + 1, (i % 10) as i64);
            rig.drain();
        }
    }
    rig.exec.close_source(s1).unwrap();
    rig.exec.close_source(s2).unwrap();
    rig.drain();
    let stats = rig.exec.stats();
    let join_peak = rig
        .exec
        .profile()
        .iter()
        .find(|p| p.name == "⋈")
        .expect("join profiled")
        .peak_state;
    assert!(join_peak > 0, "join held state at some point");
    assert_eq!(
        stats.peak_join_state, join_peak,
        "global peak = join's peak"
    );
    // 2 s window over both sides: ≤ 400 S1 tuples + ≤ 50 S2 tuples live at
    // once; 1.5× purge slack on the hashed windows stays well under 700.
    assert!(
        join_peak < 700,
        "state bounded by window expiry: {join_peak}"
    );
}
