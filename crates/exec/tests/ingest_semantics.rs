//! Differential test: the ingest-path semantics of [`ParallelExecutor`]
//! must match the serial [`Executor`] exactly (and [`ShardedExecutor`]'s
//! must match in outcome and delivery) — closed-source errors,
//! punctuation-misuse errors, stale-heartbeat drops and the
//! `dropped_stale_heartbeats` counter all have to survive the command
//! channel and merge correctly into [`ParallelSnapshot`].
//!
//! The only sanctioned difference is *when* an error is observed: the
//! serial executor reports it from the ingest call itself, the parallel
//! executor from the next quiescence barrier (fire-and-forget sends).

use std::sync::{Arc, Mutex};

use millstream_exec::{
    CostModel, Engine, EtsPolicy, ExecStats, Executor, GraphBuilder, Input, ParallelConfig,
    ParallelExecutor, QueryGraph, ShardedConfig, ShardedExecutor, SourceId, VirtualClock,
};
use millstream_ops::{Sink, SinkCollector, Union};
use millstream_types::{DataType, Error, Field, Schema, Timestamp, TimestampKind, Tuple, Value};

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

/// S1, S2 → ∪ → sink delivering to `out` — one component, so every
/// engine hosts the same graph shape.
fn union_graph_into(out: impl SinkCollector + 'static) -> (QueryGraph, [SourceId; 2]) {
    let mut b = GraphBuilder::new();
    let s1 = b.source("S1", schema(), TimestampKind::Internal);
    let s2 = b.source("S2", schema(), TimestampKind::Internal);
    let u = b
        .operator(
            Box::new(Union::new("∪", schema(), 2)),
            vec![Input::Source(s1), Input::Source(s2)],
        )
        .unwrap();
    b.operator(
        Box::new(Sink::new("sink", schema(), out)),
        vec![Input::Op(u)],
    )
    .unwrap();
    (b.build().unwrap(), [s1, s2])
}

fn union_graph() -> (QueryGraph, [SourceId; 2], Out) {
    let out = Out::default();
    let (graph, ids) = union_graph_into(out.clone());
    (graph, ids, out)
}

fn data(ts: u64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
}

/// One script step followed by a run to quiescence, reporting any error
/// either raises (the threaded engines surface ingest errors from the
/// barrier).
fn step(
    b: &mut dyn Engine,
    op: impl FnOnce(&mut dyn Engine) -> Result<(), Error>,
) -> Result<(), String> {
    op(b)
        .and_then(|()| b.run_until_quiescent(1_000_000).map(|_| ()))
        .map_err(|e| e.to_string())
}

/// Runs the same ingest script against an engine, returning per-step
/// outcomes (Ok/Err with message) plus the final stats and deliveries.
fn run_script(
    b: &mut dyn Engine,
    [s1, s2]: [SourceId; 2],
    out: &Out,
) -> (Vec<Result<(), String>>, ExecStats, Vec<Tuple>) {
    let ingest = |b: &mut dyn Engine, s: SourceId, t: Tuple| {
        step(b, |b| {
            b.advance_to(t.ts)?;
            b.ingest(s, t)
        })
    };
    let heartbeat = |b: &mut dyn Engine, s: SourceId, ts: u64| {
        step(b, |b| b.ingest_heartbeat(s, Timestamp::from_micros(ts)))
    };
    let close = |b: &mut dyn Engine, s: SourceId| step(b, |b| b.close_source(s));

    let log = vec![
        // Normal data flow.
        ingest(b, s1, data(10)),
        ingest(b, s2, data(20)),
        // Stale heartbeats: below S1's data high-water, then at (==
        // duplicate of) an already-asserted punctuation mark. Both are
        // silent drops that must bump the counter.
        heartbeat(b, s1, 5),
        heartbeat(b, s1, 30),
        heartbeat(b, s1, 30),
        // Punctuation misuse through the data path: a structured error.
        ingest(b, s2, Tuple::punctuation(Timestamp::from_micros(40))),
        // Close S2, then every further touch of it errors.
        close(b, s2),
        ingest(b, s2, data(50)),
        heartbeat(b, s2, 60),
        // Closing twice stays idempotent, and S1 still works.
        close(b, s2),
        ingest(b, s1, data(70)),
        close(b, s1),
    ];

    let stats = b.stats().unwrap();
    let delivered = out.0.lock().unwrap().clone();
    (log, stats, delivered)
}

#[test]
fn parallel_ingest_semantics_match_serial() {
    let (sg, s_ids, s_out) = union_graph();
    let (pg, p_ids, p_out) = union_graph();
    let mut serial = Executor::new(
        sg,
        VirtualClock::shared(),
        CostModel::free(),
        EtsPolicy::None,
    );
    let mut parallel = ParallelExecutor::new(
        pg,
        ParallelConfig::new(CostModel::free(), EtsPolicy::None, 2),
    );
    let (s_log, s_stats, s_del) = run_script(&mut serial, s_ids, &s_out);
    let (p_log, p_stats, p_del) = run_script(&mut parallel, p_ids, &p_out);

    assert_eq!(s_log, p_log, "identical per-step outcomes (incl. messages)");
    assert_eq!(s_del, p_del, "identical deliveries");
    assert_eq!(s_stats, p_stats, "identical merged stats");

    // The sharded engine runs the same script to the same per-step Ok/Err
    // outcome and the same deliveries. Message text and counters are not
    // compared: the exchange router words its own errors and the merge
    // stage has its own counters.
    let x_out = Out::default();
    let mut x_ids = None;
    let mut sharded = ShardedExecutor::new(
        |_, shard_out| {
            let (graph, ids) = union_graph_into(shard_out);
            x_ids = Some(ids);
            Ok(graph)
        },
        schema(),
        Box::new(x_out.clone()),
        ShardedConfig::new(CostModel::free(), EtsPolicy::None, 2),
    )
    .unwrap();
    let (x_log, _, x_del) = run_script(&mut sharded, x_ids.unwrap(), &x_out);
    let outcomes = |log: &[Result<(), String>]| log.iter().map(Result::is_ok).collect::<Vec<_>>();
    assert_eq!(outcomes(&s_log), outcomes(&x_log), "sharded: {x_log:?}");
    assert_eq!(s_del, x_del, "sharded deliveries");

    // Spot-check the interesting outcomes are what the serial contract
    // promises (so the differential test cannot vacuously pass on two
    // equally wrong backends).
    assert!(s_log[0].is_ok() && s_log[1].is_ok());
    assert!(
        s_log[2].is_ok() && s_log[3].is_ok() && s_log[4].is_ok(),
        "stale heartbeats are silent drops"
    );
    assert_eq!(
        s_stats.dropped_stale_heartbeats, 2,
        "one below data high-water, one duplicate punctuation; the first \
         heartbeat at 30 is fresh"
    );
    let misuse = s_log[5].as_ref().unwrap_err();
    assert!(misuse.contains("ingest_heartbeat"), "{misuse}");
    assert!(s_log[6].is_ok(), "close is clean");
    let closed = s_log[7].as_ref().unwrap_err();
    assert!(closed.contains("closed"), "{closed}");
    let closed_hb = s_log[8].as_ref().unwrap_err();
    assert!(closed_hb.contains("closed"), "{closed_hb}");
    assert!(s_log[9].is_ok(), "double close is idempotent");
    assert!(s_log[10].is_ok(), "the open source still ingests");
}

/// The counter must also merge across *components*: two independent
/// streams each dropping stale heartbeats on different workers sum into
/// one `ParallelSnapshot` figure.
#[test]
fn stale_heartbeat_counter_merges_across_components() {
    let mut b = GraphBuilder::new();
    let s1 = b.source("A", schema(), TimestampKind::Internal);
    let s2 = b.source("B", schema(), TimestampKind::Internal);
    for (s, name) in [(s1, "sink-a"), (s2, "sink-b")] {
        b.operator(
            Box::new(Sink::new(name, schema(), Out::default())),
            vec![Input::Source(s)],
        )
        .unwrap();
    }
    let pex = ParallelExecutor::new(
        b.build().unwrap(),
        ParallelConfig::new(CostModel::free(), EtsPolicy::None, 2),
    );
    assert_eq!(pex.num_components(), 2);
    for s in [s1, s2] {
        pex.ingest(s, data(100)).unwrap();
        pex.ingest_heartbeat(s, Timestamp::from_micros(10)).unwrap(); // stale
    }
    pex.run_until_quiescent(1_000_000).unwrap();
    let snap = pex.snapshot().unwrap();
    assert_eq!(snap.stats.dropped_stale_heartbeats, 2);
    assert_eq!(
        snap.component_stats
            .iter()
            .map(|s| s.dropped_stale_heartbeats)
            .collect::<Vec<_>>(),
        vec![1, 1],
        "one drop on each worker"
    );
}

/// `ingest_batch` (coordinator and handle flavors) must be equivalent to
/// the same tuples fed one at a time — identical deliveries and stats —
/// while crossing the worker channel in far fewer commands.
#[test]
fn batched_ingest_matches_tuple_at_a_time() {
    const N: u64 = 100;
    let ts = |src: u64, i: u64| (i * 2 + src + 1) * 10;

    // Reference: tuple-at-a-time through the coalescing `ingest` path.
    let (graph, [a1, a2], out_a) = union_graph();
    let pex_a = ParallelExecutor::new(
        graph,
        ParallelConfig::new(CostModel::free(), EtsPolicy::None, 2),
    );
    for i in 0..N {
        pex_a.ingest(a1, data(ts(0, i))).unwrap();
        pex_a.ingest(a2, data(ts(1, i))).unwrap();
    }

    // Batched: the same tuples in runs of 25 through the coordinator, S1
    // merging with its coalescing buffer.
    let (graph, [b1, b2], out_b) = union_graph();
    let pex_b = ParallelExecutor::new(
        graph,
        ParallelConfig::new(CostModel::free(), EtsPolicy::None, 2),
    );
    // Seed the coalescing buffer so at least one batch exercises the
    // merge-with-pending branch instead of the ship-as-is fast path.
    pex_b.ingest(b1, data(ts(0, 0))).unwrap();
    for chunk in 0..4 {
        let run = |src: u64, skip: u64| -> Vec<Tuple> {
            (chunk * 25..(chunk + 1) * 25)
                .filter(|&i| i >= skip)
                .map(|i| data(ts(src, i)))
                .collect()
        };
        pex_b.ingest_batch(b1, run(0, 1)).unwrap();
        pex_b.ingest_batch(b2, run(1, 0)).unwrap();
    }

    for (pex, [s1, s2]) in [(&pex_a, [a1, a2]), (&pex_b, [b1, b2])] {
        pex.advance_to(Timestamp::from_micros(ts(1, N - 1)))
            .unwrap();
        pex.close_source(s1).unwrap();
        pex.close_source(s2).unwrap();
        pex.run_until_quiescent(1_000_000).unwrap();
    }

    let del_a = out_a.0.lock().unwrap().clone();
    let del_b = out_b.0.lock().unwrap().clone();
    assert_eq!(del_a.len(), (2 * N) as usize);
    assert_eq!(del_a, del_b, "batched ingest changes no delivery");
    assert_eq!(
        pex_a.snapshot().unwrap().stats,
        pex_b.snapshot().unwrap().stats,
        "batched ingest changes no counter"
    );
    // 200 tuples crossed in ≤ 9 IngestBatch commands (1 seed-flush + 4
    // runs per source); everything else is advance/close/run traffic,
    // nowhere near one command per tuple.
    assert!(
        pex_b.commands_sent() <= 20,
        "batched path sent {} commands",
        pex_b.commands_sent()
    );
}
