//! A high-level, batteries-included runner for textual queries.
//!
//! [`QueryRunner`] compiles a program with `millstream-query`, executes it
//! on the depth-first NOS executor, and gives a push/run/drain interface
//! with explicit timestamps — the easiest way to use millstream as a
//! library (workload-driven experiments use `millstream-sim` instead).

use std::sync::{Arc, Mutex};

use millstream_exec::{
    CostModel, Engine, EtsPolicy, Executor, OpProfile, ShardedConfig, ShardedExecutor, VirtualClock,
};
use millstream_ops::{SinkCollector, VecCollector};
use millstream_query::{
    plan_program, plan_query, shard_keys, Catalog, PlannedQuery, PlannedSource,
};
use millstream_types::{Error, Result, Schema, Timestamp, Tuple, Value};

/// A `SinkCollector` that shares its deliveries with the runner.
#[derive(Clone, Default)]
struct SharedVec(Arc<Mutex<VecCollector>>);

impl SinkCollector for SharedVec {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.0.lock().unwrap().deliver(tuple, now);
    }
}

/// Compiles and runs one continuous query over manually pushed tuples.
///
/// ```
/// use millstream_core::QueryRunner;
/// use millstream_types::Value;
///
/// let mut q = QueryRunner::new(
///     "CREATE STREAM a (v INT);
///      CREATE STREAM b (v INT);
///      SELECT v FROM a WHERE v > 10 UNION SELECT v FROM b;",
/// ).unwrap();
/// q.push("a", 1_000, vec![Value::Int(50)]).unwrap();
/// q.push("b", 2_000, vec![Value::Int(7)]).unwrap();
/// let out = q.finish().unwrap();
/// assert_eq!(out.len(), 2);
/// assert!(out[0].ts < out[1].ts);
/// ```
pub struct QueryRunner {
    engine: Box<dyn Engine>,
    /// Exchange shards in use and the plan DOT, captured at construction:
    /// the engine is only driven from here on.
    shards: usize,
    plan_dot: String,
    sources: Vec<PlannedSource>,
    output: SharedVec,
    output_schema: Schema,
}

impl QueryRunner {
    /// Compiles `program` (CREATE STREAM statements + one query).
    ///
    /// Honors the environment variable `MILLSTREAM_SHARDS`: a value ≥ 2
    /// selects the key-partitioned intra-component backend (the
    /// programmatic equivalent of `msq --shards N`; unshardable queries
    /// transparently fall back to the serial executor). Otherwise the
    /// serial executor runs the whole graph.
    ///
    /// Independently, `MILLSTREAM_JOIN_SPILL` (the env spelling of
    /// `msq --join-spill-budget`) gives every join input a tiered state:
    /// aged rows compact into columnar runs and runs beyond the byte
    /// budget spill to a per-state temp file. Output is byte-identical at
    /// any setting; only peak resident join state changes
    /// ([`millstream_ops::TierConfig`]).
    pub fn new(program: &str) -> Result<QueryRunner> {
        match std::env::var("MILLSTREAM_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&s| s >= 2)
        {
            Some(shards) => QueryRunner::new_sharded(program, shards),
            None => QueryRunner::new_serial(program),
        }
    }

    /// Compiles `program` onto the sharded intra-component backend
    /// ([`plan_sharded`]; `msq --shards N`), falling back to the serial
    /// executor when the program cannot be sharded — check
    /// [`QueryRunner::shards`] to see which backend actually runs.
    pub fn new_sharded(program: &str, shards: usize) -> Result<QueryRunner> {
        let output = SharedVec::default();
        // Same discipline as the serial backend: explicit timestamps, no
        // wall-clock ETS — frontier summaries do the unblocking.
        let config = ShardedConfig::new(CostModel::free(), EtsPolicy::None, shards);
        let Some((sx, planned)) = plan_sharded(program, config, Box::new(output.clone()))? else {
            return QueryRunner::new_serial(program);
        };
        Ok(QueryRunner {
            shards: sx.num_shards(),
            plan_dot: sx.plan_dot().to_string(),
            engine: Box::new(sx),
            sources: planned.sources,
            output,
            output_schema: planned.output_schema,
        })
    }

    /// Compiles `program` onto the single-threaded depth-first NOS
    /// executor.
    pub fn new_serial(program: &str) -> Result<QueryRunner> {
        let output = SharedVec::default();
        let planned = plan_program(program, output.clone())?;
        let plan_dot = planned.graph.to_dot();
        let executor = Executor::new(
            planned.graph,
            VirtualClock::shared(),
            CostModel::free(),
            // Explicit timestamps are application time; ETS, if wanted,
            // comes from `flush` rather than the wall clock.
            EtsPolicy::None,
        );
        Ok(QueryRunner {
            engine: Box::new(executor),
            shards: 1,
            plan_dot,
            sources: planned.sources,
            output,
            output_schema: planned.output_schema,
        })
    }

    /// Exchange shards in use: >1 only on the sharded backend (so 1 after
    /// an unshardable-query fallback).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The schema of the delivered stream.
    pub fn output_schema(&self) -> &Schema {
        &self.output_schema
    }

    /// Renders the compiled plan as Graphviz DOT.
    pub fn plan_dot(&self) -> String {
        self.plan_dot.clone()
    }

    /// Per-operator execution profile so far (steps, tuples, virtual
    /// time), in plan order regardless of backend.
    pub fn profile(&self) -> Vec<OpProfile> {
        self.engine.profile().unwrap_or_default()
    }

    /// The names of the input streams, in planning order.
    pub fn stream_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.stream.as_str()).collect()
    }

    /// Pushes one tuple with an explicit timestamp (microseconds), then
    /// runs the executor until quiescent. Errors (schema mismatch,
    /// out-of-order timestamps) are reported from this call on every
    /// backend: the threaded backends' ingest is fire-and-forget, but
    /// `run`'s quiescence barrier surfaces any error it caused.
    pub fn push(&mut self, stream: &str, ts_micros: u64, values: Vec<Value>) -> Result<()> {
        let source = self
            .sources
            .iter()
            .find(|s| s.stream == stream)
            .ok_or_else(|| Error::plan(format!("query has no stream `{stream}`")))?;
        source.schema.check_row(&values)?;
        let id = source.id;
        let ts = Timestamp::from_micros(ts_micros);
        self.engine.advance_to(ts)?;
        self.engine.ingest(id, Tuple::data(ts, values))?;
        self.run()
    }

    /// Advances every input stream to at least `ts_micros` by injecting
    /// punctuation, unblocking idle-waiting operators — the manual
    /// equivalent of an ETS round.
    pub fn advance_time(&mut self, ts_micros: u64) -> Result<()> {
        let ts = Timestamp::from_micros(ts_micros);
        self.engine.advance_to(ts)?;
        for s in &self.sources {
            self.engine.ingest_heartbeat(s.id, ts)?;
        }
        self.run()
    }

    /// Runs the executor until quiescent.
    pub fn run(&mut self) -> Result<()> {
        // The step budget only guards against runaway loops; real programs
        // finish long before.
        self.engine.run_until_quiescent(10_000_000)?;
        Ok(())
    }

    /// Takes the tuples delivered since the last drain out of the
    /// runner: what it returns is no longer retained here.
    pub fn drain(&mut self) -> Vec<Tuple> {
        let delivered = std::mem::take(&mut self.output.0.lock().unwrap().delivered);
        delivered.into_iter().map(|(t, _)| t).collect()
    }

    /// Declares end-of-stream on every input, flushes every in-flight
    /// tuple (including final aggregate windows), and returns the output
    /// no [`QueryRunner::drain`] has returned — all of it if nothing was
    /// drained.
    pub fn finish(mut self) -> Result<Vec<Tuple>> {
        for s in &self.sources {
            self.engine.close_source(s.id)?;
        }
        self.run()?;
        Ok(self.drain())
    }
}

/// Plans `program` onto the sharded intra-component backend: the planner
/// derives per-source partition keys ([`shard_keys`]) and the plan is
/// replicated once per shard behind a key-partitioned exchange edge whose
/// order-restoring merge delivers to `collector`. `config` carries the
/// caller's cost model, ETS policy, shard count and tuning; its `keys`
/// are filled in here. Returns the engine together with the plan it
/// replicates (for the sources and output schema), or `None` when the
/// program cannot be sharded: the key analysis deems the query
/// unshardable (window cross products, bare aggregates, conflicting keys,
/// latent streams), it plans to more than one component (those belong to
/// `ParallelExecutor`), or it does not hold exactly one query — the
/// caller's serial fallback reports that.
pub fn plan_sharded(
    program: &str,
    config: ShardedConfig,
    collector: Box<dyn SinkCollector>,
) -> Result<Option<(ShardedExecutor, PlannedQuery)>> {
    let stmts = millstream_query::parse_program(program)?;
    let mut catalog = Catalog::new();
    let queries = catalog.apply(stmts)?;
    let [query] = queries.as_slice() else {
        return Ok(None);
    };
    let Some(keys) = shard_keys(&catalog, query)? else {
        return Ok(None);
    };
    let probe = plan_query(&catalog, query, VecCollector::default())?;
    if probe.graph.num_components() != 1 {
        return Ok(None);
    }
    let sx = ShardedExecutor::new(
        |_, out| plan_query(&catalog, query, out).map(|p| p.graph),
        probe.output_schema.clone(),
        collector,
        config.with_keys(keys),
    )?;
    Ok(Some((sx, probe)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_query_end_to_end() {
        let mut q = QueryRunner::new(
            "CREATE STREAM a (v INT);
             CREATE STREAM b (v INT);
             SELECT v FROM a UNION SELECT v FROM b;",
        )
        .unwrap();
        assert_eq!(q.stream_names(), vec!["a", "b"]);
        q.push("a", 10, vec![Value::Int(1)]).unwrap();
        q.push("b", 20, vec![Value::Int(2)]).unwrap();
        q.push("a", 30, vec![Value::Int(3)]).unwrap();
        // Before flushing, the tuple at 30 idle-waits on stream b.
        let mut out = q.drain();
        assert_eq!(out.len(), 2);
        assert!(q.drain().is_empty(), "drain() hands over what it returns");
        let rest = q.finish().unwrap();
        assert_eq!(rest.len(), 1, "finish() returns only the undrained rest");
        out.extend(rest);
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn where_filters() {
        let mut q = QueryRunner::new(
            "CREATE STREAM a (v INT);
             CREATE STREAM b (v INT);
             SELECT v FROM a WHERE v >= 10 UNION SELECT v FROM b;",
        )
        .unwrap();
        q.push("a", 1, vec![Value::Int(5)]).unwrap();
        q.push("a", 2, vec![Value::Int(15)]).unwrap();
        q.push("b", 3, vec![Value::Int(0)]).unwrap();
        let out = q.finish().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].values().unwrap()[0], Value::Int(15));
    }

    #[test]
    fn join_query_end_to_end() {
        let mut q = QueryRunner::new(
            "CREATE STREAM trades (sym INT, px INT);
             CREATE STREAM quotes (sym INT, bid INT);
             SELECT t.sym, px, bid FROM trades AS t
             JOIN quotes AS q ON t.sym = q.sym WINDOW 1 SECONDS;",
        )
        .unwrap();
        q.push("quotes", 100, vec![Value::Int(7), Value::Int(99)])
            .unwrap();
        q.push("trades", 200, vec![Value::Int(7), Value::Int(101)])
            .unwrap();
        q.push("trades", 300, vec![Value::Int(8), Value::Int(50)])
            .unwrap();
        let out = q.finish().unwrap();
        assert_eq!(out.len(), 1, "only symbol 7 joins");
        assert_eq!(
            out[0].values().unwrap(),
            &[Value::Int(7), Value::Int(101), Value::Int(99)]
        );
    }

    #[test]
    fn aggregate_query_end_to_end() {
        let err = QueryRunner::new("CREATEH STREAM x (v INT); SELECT 1 FROM x;")
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Parse { .. } | Error::Plan(_)), "{err}");

        let mut q = QueryRunner::new(
            "CREATE STREAM s (k INT, v INT);
             CREATE STREAM t (k INT, v INT);
             SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s
             GROUP BY k EVERY 1 SECONDS
             UNION
             SELECT k, COUNT(*) AS n, SUM(v) AS total FROM t
             GROUP BY k EVERY 1 SECONDS;",
        )
        .unwrap();
        q.push("s", 100_000, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        q.push("s", 200_000, vec![Value::Int(1), Value::Int(20)])
            .unwrap();
        q.push("t", 300_000, vec![Value::Int(2), Value::Int(5)])
            .unwrap();
        // Cross both aggregates' window boundary and flush.
        q.advance_time(2_000_000).unwrap();
        let out = q.drain();
        assert_eq!(out.len(), 2);
        // Stream s, key 1: n=2, total=30. window_start column first.
        let row = out
            .iter()
            .find(|t| t.values().unwrap()[1] == Value::Int(1))
            .unwrap();
        assert_eq!(row.values().unwrap()[2], Value::Int(2));
        assert_eq!(row.values().unwrap()[3], Value::Int(30));
    }

    #[test]
    fn plan_introspection() {
        let mut q = QueryRunner::new(
            "CREATE STREAM a (v INT);
             CREATE STREAM b (v INT);
             SELECT v FROM a UNION SELECT v FROM b;",
        )
        .unwrap();
        assert!(q.plan_dot().starts_with("digraph"));
        q.push("a", 1, vec![Value::Int(1)]).unwrap();
        let busy: u64 = q.profile().iter().map(|p| p.steps).sum();
        assert!(busy > 0, "profile sees the push");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut q = QueryRunner::new(
            "CREATE STREAM a (v INT);
             CREATE STREAM b (v INT);
             SELECT v FROM a UNION SELECT v FROM b;",
        )
        .unwrap();
        assert!(q.push("a", 1, vec![Value::str("oops")]).is_err());
        assert!(q.push("nope", 1, vec![Value::Int(1)]).is_err());
        assert!(q.push("a", 1, vec![]).is_err());
    }

    #[test]
    fn sliding_window_query_end_to_end() {
        let mut q = QueryRunner::new(
            "CREATE STREAM s (k INT, v INT);
             CREATE STREAM t (k INT, v INT);
             SELECT k, SUM(v) AS total FROM s
             GROUP BY k WINDOW 2 SECONDS EVERY 1 SECONDS
             UNION
             SELECT k, SUM(v) AS total FROM t
             GROUP BY k WINDOW 2 SECONDS EVERY 1 SECONDS;",
        )
        .unwrap();
        // Two tuples in consecutive 1 s panes of stream s.
        q.push("s", 500_000, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        q.push("s", 1_500_000, vec![Value::Int(1), Value::Int(20)])
            .unwrap();
        q.advance_time(5_000_000).unwrap();
        let out = q.drain();
        // Overlapping windows: [−1,1)→10, [0,2)→30, [1,3)→20.
        let sums: Vec<i64> = out
            .iter()
            .map(|t| t.values().unwrap()[2].as_int().unwrap())
            .collect();
        assert_eq!(sums, vec![10, 30, 20], "out {out:?}");
    }

    #[test]
    fn slack_stream_accepts_disorder_and_reorders() {
        let mut q = QueryRunner::new(
            "CREATE STREAM feed (v INT) TIMESTAMP EXTERNAL SLACK 1 SECONDS;
             CREATE STREAM other (v INT);
             SELECT v FROM feed UNION SELECT v FROM other;",
        )
        .unwrap();
        // Out-of-order pushes within the slack bound are accepted.
        q.push("feed", 100_000, vec![Value::Int(1)]).unwrap();
        q.push("feed", 50_000, vec![Value::Int(2)]).unwrap();
        q.push("feed", 150_000, vec![Value::Int(3)]).unwrap();
        let out = q.finish().unwrap();
        assert_eq!(out.len(), 3, "nothing lost");
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
        assert_eq!(ts, vec![50_000, 100_000, 150_000], "order restored");
    }

    #[test]
    fn sharded_backend_matches_serial() {
        let program = "CREATE STREAM s (k INT, v INT);
             CREATE STREAM t (k INT, v INT);
             SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s
             GROUP BY k EVERY 1 SECONDS
             UNION
             SELECT k, COUNT(*) AS n, SUM(v) AS total FROM t
             GROUP BY k EVERY 1 SECONDS;";
        let drive = |mut q: QueryRunner| -> Vec<Tuple> {
            for i in 0..200u64 {
                let (stream, k) = if i % 3 == 0 {
                    ("t", i % 5)
                } else {
                    ("s", i % 7)
                };
                q.push(
                    stream,
                    i * 10_000,
                    vec![Value::Int(k as i64), Value::Int(1)],
                )
                .unwrap();
            }
            q.advance_time(3_000_000).unwrap();
            q.finish().unwrap()
        };
        let serial = drive(QueryRunner::new_serial(program).unwrap());
        for shards in [2usize, 4] {
            let q = QueryRunner::new_sharded(program, shards).unwrap();
            assert_eq!(q.shards(), shards, "grouped query is shardable");
            let sharded = drive(q);
            assert_eq!(serial.len(), sharded.len());
            // Same multiset of rows; cross-shard ties at one timestamp may
            // interleave differently than the serial BTreeMap order.
            let mut a = serial.clone();
            let mut b = sharded.clone();
            let key = |t: &Tuple| format!("{:?}", t);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "{shards} shards");
            // Timestamp order is still restored by the merge.
            let ts: Vec<u64> = sharded.iter().map(|t| t.ts.as_micros()).collect();
            let mut sorted = ts.clone();
            sorted.sort_unstable();
            assert_eq!(ts, sorted);
        }
    }

    #[test]
    fn unshardable_query_falls_back_to_serial() {
        // A bare-window cross product is unshardable: pairs would be lost
        // across shards. new_sharded must fall back, not fail or mis-run.
        let q = QueryRunner::new_sharded(
            "CREATE STREAM a (v INT);
             CREATE STREAM b (v INT);
             SELECT a.v FROM a AS a JOIN b AS b ON TRUE WINDOW 1 SECONDS;",
            4,
        )
        .unwrap();
        assert_eq!(q.shards(), 1, "fell back to serial");

        let mut q = QueryRunner::new_sharded(
            "CREATE STREAM a (k INT, v INT);
             SELECT k, SUM(v) AS s FROM a GROUP BY k EVERY 1 SECONDS;",
            4,
        )
        .unwrap();
        assert_eq!(q.shards(), 4, "keyed aggregate is shardable");
        q.push("a", 10, vec![Value::Int(1), Value::Int(2)]).unwrap();
        let out = q.finish().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values().unwrap()[2], Value::Int(2));
    }

    #[test]
    fn sharded_backend_rejects_out_of_order_push() {
        let mut q = QueryRunner::new_sharded(
            "CREATE STREAM a (v INT);
             SELECT v FROM a WHERE v > 0;",
            2,
        )
        .unwrap();
        q.push("a", 100, vec![Value::Int(1)]).unwrap();
        assert!(matches!(
            q.push("a", 50, vec![Value::Int(2)]).unwrap_err(),
            Error::OutOfOrder { .. }
        ));
    }

    #[test]
    fn out_of_order_push_is_rejected() {
        let mut q = QueryRunner::new(
            "CREATE STREAM a (v INT);
             CREATE STREAM b (v INT);
             SELECT v FROM a UNION SELECT v FROM b;",
        )
        .unwrap();
        q.push("a", 100, vec![Value::Int(1)]).unwrap();
        assert!(matches!(
            q.push("a", 50, vec![Value::Int(2)]).unwrap_err(),
            Error::OutOfOrder { .. }
        ));
    }
}
