//! Intra-component data parallelism: key-partitioned exchange edges whose
//! frontiers are plain values the coordinator owns.
//!
//! [`crate::ParallelExecutor`] parallelizes *across* connected components;
//! a query that is one big component still runs on one thread. The
//! [`ShardedExecutor`] shards a single component across N workers:
//!
//! * an **exchange router** partitions every ingested data tuple with a
//!   deterministic, seeded key hash ([`route_shard`]) and feeds each
//!   shard's one FIFO channel in batches — one [`ShardCmd::Batch`] per
//!   drained run, preserving the zero-allocation `Row`/pooled-buffer path.
//!   Heartbeats, closes and clock advances share that channel, so none can
//!   overtake the data routed before it;
//! * each **shard worker** hosts an unmodified single-threaded
//!   [`Executor`] over a structurally identical replica of the component
//!   graph. Where the serial executor consults per-source ETS/TSM
//!   registers, a shard consults the source bounds its
//!   [`ShardCmd::RunBatch`] carries: when its replica still holds queued
//!   work after quiescing (an IWP operator starved on a key-partition it
//!   will never receive), it performs an **on-demand frontier advance** —
//!   a heartbeat at the bound, generated only because a downstream
//!   operator actually starved, mirroring the paper's on-demand ETS
//!   discipline. Its reply carries its **floor**: a lower bound on
//!   anything it may still emit, `min(source bounds, queued buffer
//!   fronts, operator frontier holds)` — see
//!   [`millstream_ops::Operator::frontier_hold`];
//! * the **coordinator** owns every frontier as a plain value — per source
//!   the routed and punctuation high-waters, per shard the highest floor
//!   reported — so no frontier is shared between threads;
//! * the **merge stage** (a serial [`Executor`] with one ordered source
//!   per shard feeding a ts-merging union) re-establishes a single
//!   ordered output. It runs with [`EtsPolicy::None`]: its only frontier
//!   advances are floor heartbeats the coordinator injects *on demand*,
//!   when the merge union is observed starving — never speculatively, so
//!   a floor can never overtake a shard's in-flight emission.
//!
//! The sentinel layer closes the loop: every drained shard emission is
//! checked against the floor previously promised for that shard
//! ([`OrderSentinel::check_frontier_consistency`]); in strict mode a
//! violation aborts the run instead of silently reordering the merge.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use std::sync::mpsc::{self, Receiver, SyncSender};

use millstream_buffer::{CheckMode, OrderSentinel, SentinelStats};
use millstream_ops::{Sink, SinkCollector, Union};
use millstream_types::{Error, Result, Schema, Timestamp, TimestampKind, Tuple};

use crate::clock::{CostModel, VirtualClock};
use crate::executor::{ExecOptions, ExecStats, Executor, OpProfile, SchedPolicy};
use crate::graph::{route_shard, GraphBuilder, Input, QueryGraph, ShardKey, SourceId};
use crate::parallel::{panic_error, WorkerPool, INGEST_BATCH};
use crate::strategy::{frontier_advance, EtsPolicy};

/// Upper bound on shards: the merge union is one operator, and operator
/// fan-in is capped by the executor's inline port marshalling.
pub const MAX_SHARDS: usize = 8;

/// Construction-time configuration for a [`ShardedExecutor`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Virtual CPU cost model, applied per shard replica.
    pub cost: CostModel,
    /// Timestamp-management policy inside each shard replica.
    pub policy: EtsPolicy,
    /// Operator-scheduling discipline inside each shard replica.
    pub sched: SchedPolicy,
    /// Execution tuning knobs (Encore batching).
    pub opts: ExecOptions,
    /// Shard count; clamped to `1..=`[`MAX_SHARDS`].
    pub shards: usize,
    /// Partition key per source (by local source id). Empty means
    /// [`ShardKey::WholeRow`] everywhere — correct only when no operator
    /// keeps key-grouped state (no join, no GROUP BY).
    pub keys: Vec<ShardKey>,
    /// Invariant-checking override. `None` (default) inherits the
    /// `MILLSTREAM_CHECK` environment variable.
    pub check: Option<CheckMode>,
}

impl ShardedConfig {
    /// A config with default scheduling/tuning and the given essentials.
    pub fn new(cost: CostModel, policy: EtsPolicy, shards: usize) -> Self {
        ShardedConfig {
            cost,
            policy,
            sched: SchedPolicy::default(),
            opts: ExecOptions::default(),
            shards,
            keys: Vec::new(),
            check: None,
        }
    }

    /// Sets the per-source partition keys (builder style).
    pub fn with_keys(mut self, keys: Vec<ShardKey>) -> Self {
        self.keys = keys;
        self
    }

    /// Overrides the invariant-checking mode (builder style).
    pub fn with_check_mode(mut self, mode: CheckMode) -> Self {
        self.check = Some(mode);
        self
    }

    /// Selects the operator-scheduling discipline (builder style).
    pub fn with_sched_policy(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }
}

/// The collector a shard replica's sink delivers into: a queue the
/// coordinator drains into the merge stage after each shard barrier.
/// Hand one to the sink of each replica built by the graph factory.
#[derive(Clone, Default)]
pub struct ShardOutput {
    queue: Arc<Mutex<Vec<Tuple>>>,
}

impl SinkCollector for ShardOutput {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        self.queue.lock().expect("shard output lock").push(tuple);
    }
}

/// Commands on a shard worker's one FIFO channel, in route order. Source
/// traffic (`Batch`, `Heartbeat`, `Close`, `AdvanceTo`) is applied as it
/// arrives, so a heartbeat can never overtake the data routed before it;
/// an error it raises is stashed and reported by the next `RunBatch`.
enum ShardCmd {
    /// A coalesced run of data tuples for one local source.
    Batch(SourceId, Vec<Tuple>),
    /// A broadcast heartbeat punctuation.
    Heartbeat(SourceId, Timestamp),
    /// End-of-stream for one local source.
    Close(SourceId),
    /// Advance the shard's clock.
    AdvanceTo(Timestamp),
    /// Run until quiescent, advance starved frontiers on demand against
    /// `bounds` (the coordinator's per-source frontiers), and reply with
    /// the steps taken and the shard's output floor (or the first error).
    /// With `promise`, first ask the replica's ETS policy for a promise on
    /// every open source ([`Executor::promise_frontiers`]) — the cross-shard
    /// hop of a merge-stage starvation backtrack, sent when the merge
    /// starves behind floors that no routed traffic will move.
    RunBatch {
        max_steps: u64,
        promise: bool,
        bounds: Arc<[Option<Timestamp>]>,
        reply: SyncSender<Result<(u64, Option<Timestamp>)>>,
    },
    /// Reply with the shard's executor state.
    Snapshot { reply: SyncSender<ShardSnap> },
    /// Exit the worker loop (sent by [`WorkerPool`] teardown).
    Stop,
}

/// Per-shard state snapshot.
struct ShardSnap {
    stats: ExecStats,
    profile: Vec<OpProfile>,
    advances: u64,
    busy_nanos: u64,
}

/// Runs `f`, turning a panic into a runtime error.
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_error(p)))
}

/// Serves a [`ShardCmd::RunBatch`]: returns the steps taken and the
/// floor, counting on-demand frontier advances into `advances`.
fn run_batch(
    exec: &mut Executor,
    advances: &mut u64,
    max_steps: u64,
    promise: bool,
    bounds: &[Option<Timestamp>],
) -> Result<(u64, Option<Timestamp>)> {
    let mut taken = exec.run_until_quiescent(max_steps)?;
    if promise && exec.promise_frontiers()? > 0 {
        *advances += 1;
        taken = taken.saturating_add(exec.run_until_quiescent(max_steps)?);
    }
    // On-demand frontier advance: only while the replica still holds
    // queued work after quiescing — a downstream IWP operator starved on
    // a partition routed elsewhere. A source's bound is the router's
    // promise that no shard will ever see that source below it.
    while exec.graph().total_queued() > 0 {
        let mut advanced = false;
        for (i, &bound) in bounds.iter().enumerate() {
            let sid = SourceId(i);
            if exec.graph().source(sid).closed {
                continue;
            }
            let advance = {
                let g = exec.graph();
                let b = g.buffers[g.sources[i].buffer.0].borrow();
                frontier_advance(bound, b.high_water(), b.punct_high_water())
            };
            if let Some(f) = advance {
                exec.ingest_heartbeat(sid, f)?;
                *advances += 1;
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
        taken = taken.saturating_add(exec.run_until_quiescent(max_steps)?);
    }
    Ok((taken, output_floor(exec, bounds)))
}

/// The shard's output floor: `min` over the per-source bounds, the fronts
/// of every queued buffer, and every operator's frontier hold. Nothing
/// the shard emits later can be below it. A source's bound is the *max*
/// of the coordinator's frontier (the router's promise) and the local
/// punctuation high-water (the replica's own ETS promise — valid because
/// the replica rejects data below it, exactly as a serial executor does
/// after generating the same ETS). `None` while the floor is unknown.
fn output_floor(exec: &Executor, bounds: &[Option<Timestamp>]) -> Option<Timestamp> {
    let g = exec.graph();
    let mut floor = Timestamp::MAX;
    for (i, &bound) in bounds.iter().enumerate() {
        let local = g.buffers[g.sources[i].buffer.0].borrow().punct_high_water();
        // A source with no routed data and no punctuation anywhere
        // bounds nothing: the floor is unknown.
        floor = floor.min(bound.max(local)?);
    }
    if let Some(t) = g.min_front_ts() {
        floor = floor.min(t);
    }
    if let Some(t) = g.min_frontier_hold() {
        floor = floor.min(t);
    }
    Some(floor)
}

/// Shard worker main loop — same stash-until-barrier error discipline as
/// the per-component worker loop: every state-mutating command runs under
/// a panic guard, and the first error waits for the next `RunBatch`.
fn shard_worker(rx: Receiver<ShardCmd>, mut exec: Executor) {
    let mut pending_err: Option<Error> = None;
    let (mut advances, mut busy_nanos) = (0u64, 0u64);
    while let Ok(cmd) = rx.recv() {
        let start = Instant::now();
        let applied = match cmd {
            ShardCmd::Batch(s, tuples) => guarded(|| exec.ingest_batch(s, tuples)),
            ShardCmd::Heartbeat(s, ts) => guarded(|| exec.ingest_heartbeat(s, ts)),
            ShardCmd::Close(s) => guarded(|| exec.close_source(s)),
            ShardCmd::AdvanceTo(ts) => {
                exec.clock().advance_to(ts);
                exec.refresh_idle();
                Ok(())
            }
            ShardCmd::RunBatch {
                max_steps,
                promise,
                bounds,
                reply,
            } => {
                let result = match pending_err.take() {
                    Some(e) => Err(e),
                    None => {
                        guarded(|| run_batch(&mut exec, &mut advances, max_steps, promise, &bounds))
                    }
                };
                let _ = reply.send(result);
                Ok(())
            }
            ShardCmd::Snapshot { reply } => {
                let _ = reply.send(ShardSnap {
                    stats: exec.stats(),
                    profile: exec.profile().to_vec(),
                    advances,
                    busy_nanos,
                });
                Ok(())
            }
            ShardCmd::Stop => break,
        };
        if let Err(e) = applied {
            pending_err.get_or_insert(e);
        }
        busy_nanos += start.elapsed().as_nanos() as u64;
    }
}

fn disconnected() -> Error {
    Error::runtime("shard worker disconnected")
}

/// Merged state of a sharded execution.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    /// Executor counters summed over every shard plus the merge stage.
    pub stats: ExecStats,
    /// Per-operator profile of the replicated plan, summed elementwise
    /// across the structurally identical shard replicas (plan order).
    pub profile: Vec<OpProfile>,
    /// Each shard's highest reported output floor.
    pub floors: Vec<Option<Timestamp>>,
    /// On-demand frontier advances generated per shard (the sharded
    /// analogue of `ets_generated`).
    pub frontier_advances: Vec<u64>,
    /// Floor heartbeats the coordinator injected into the merge stage —
    /// each one generated because the merge union was observed starving.
    pub merge_heartbeats: u64,
    /// Frontier-consistency violations observed at the merge input.
    pub frontier_violations: u64,
    /// Wall-clock nanoseconds each shard worker spent busy (applying
    /// routed traffic, running `RunBatch`, answering `Snapshot`); subtract
    /// from elapsed time for idle.
    pub busy_nanos: Vec<u64>,
}

/// Runs one connected component sharded across N worker threads behind a
/// key-partitioned exchange edge, with an order-restoring merge stage.
///
/// Construction takes a graph *factory* because [`QueryGraph`] owns boxed
/// operator state and cannot be cloned: the factory is invoked once per
/// shard and must build a structurally identical replica whose sink
/// delivers into the provided [`ShardOutput`].
pub struct ShardedExecutor {
    pool: WorkerPool<ShardCmd>,
    /// Coalescing buffer: `pending[shard][source]` is the run of routed
    /// tuples not yet shipped. Flushed when full or before any non-data
    /// traffic, preserving per-source route order.
    pending: Vec<Vec<Vec<Tuple>>>,
    pending_count: usize,
    outputs: Vec<ShardOutput>,
    merge: Executor,
    merge_sources: Vec<SourceId>,
    /// Per shard: the highest floor heartbeat injected into the merge —
    /// the promise every later emission of that shard is checked against.
    promised: Vec<Option<Timestamp>>,
    /// Per source: router-side data high-water (ordered sources only).
    route_hw: Vec<Option<Timestamp>>,
    /// Per source: broadcast punctuation high-water (close = `MAX`).
    punct_hw: Vec<Option<Timestamp>>,
    /// Per shard: the highest output floor any `RunBatch` reported.
    floors: Vec<Option<Timestamp>>,
    ordered: Vec<bool>,
    keys: Vec<ShardKey>,
    shards: usize,
    num_sources: usize,
    source_names: Vec<String>,
    closed: Vec<bool>,
    merge_closed: bool,
    sentinel: Option<OrderSentinel>,
    sentinel_stats: Arc<SentinelStats>,
    merge_heartbeats: u64,
    dot: String,
}

impl ShardedExecutor {
    /// Builds the shard replicas via `factory`, spawns one worker per
    /// shard, and assembles the merge stage delivering to `collector`.
    /// `output_schema` is the schema of the replicas' sink stream.
    pub fn new<F>(
        mut factory: F,
        output_schema: Schema,
        collector: Box<dyn SinkCollector>,
        config: ShardedConfig,
    ) -> Result<ShardedExecutor>
    where
        F: FnMut(usize, ShardOutput) -> Result<QueryGraph>,
    {
        let shards = config.shards.clamp(1, MAX_SHARDS);

        let mut outputs = Vec::with_capacity(shards);
        let mut graphs: Vec<QueryGraph> = Vec::with_capacity(shards);
        for j in 0..shards {
            let out = ShardOutput::default();
            let g = factory(j, out.clone())?;
            if j == 0 {
                if g.num_components() != 1 {
                    return Err(Error::graph(
                        "sharded execution requires a single connected component",
                    ));
                }
            } else if g.num_sources() != graphs[0].num_sources()
                || g.num_ops() != graphs[0].num_ops()
            {
                return Err(Error::graph(
                    "shard graph factory must build structurally identical replicas",
                ));
            }
            outputs.push(out);
            graphs.push(g);
        }
        let num_sources = graphs[0].num_sources();
        let ordered: Vec<bool> = graphs[0]
            .source_ids()
            .map(|s| graphs[0].source_is_ordered(s))
            .collect();
        let source_names: Vec<String> = graphs[0]
            .source_ids()
            .map(|s| graphs[0].source(s).name.clone())
            .collect();
        let keys = if config.keys.is_empty() {
            vec![ShardKey::WholeRow; num_sources]
        } else if config.keys.len() == num_sources {
            config.keys.clone()
        } else {
            return Err(Error::config(format!(
                "{} shard keys for {} sources",
                config.keys.len(),
                num_sources
            )));
        };
        let dot = graphs[0].to_dot_sharded(shards, &keys);

        let execs = graphs
            .into_iter()
            .map(|g| {
                let mut exec = Executor::new(g, VirtualClock::shared(), config.cost, config.policy)
                    .with_sched_policy(config.sched)
                    .with_exec_options(config.opts);
                if let Some(mode) = config.check {
                    exec = exec.with_check_mode(mode);
                }
                exec
            })
            .collect();
        let pool = WorkerPool::spawn("millstream-shard", execs, || ShardCmd::Stop, shard_worker);

        // The merge stage: one ordered internal source per shard, a
        // ts-merging union (for >1 shard), the real sink. EtsPolicy::None —
        // the only frontier advances are injected floors.
        let mut b = GraphBuilder::new();
        let merge_sources: Vec<SourceId> = (0..shards)
            .map(|j| {
                b.source(
                    format!("merge{j}"),
                    output_schema.clone(),
                    TimestampKind::Internal,
                )
            })
            .collect();
        if shards == 1 {
            b.operator(
                Box::new(Sink::new("merge-sink", output_schema.clone(), collector)),
                vec![Input::Source(merge_sources[0])],
            )?;
        } else {
            let u = b.operator(
                Box::new(Union::new("merge-∪", output_schema.clone(), shards)),
                merge_sources.iter().map(|&s| Input::Source(s)).collect(),
            )?;
            b.operator(
                Box::new(Sink::new("merge-sink", output_schema, collector)),
                vec![Input::Op(u)],
            )?;
        }
        let mut merge = Executor::new(
            b.build()?,
            VirtualClock::shared(),
            CostModel::free(),
            EtsPolicy::None,
        );
        if let Some(mode) = config.check {
            merge = merge.with_check_mode(mode);
        }

        let mode = config.check.unwrap_or_else(CheckMode::from_env);
        let sentinel_stats = SentinelStats::shared();
        let sentinel = mode
            .is_enabled()
            .then(|| OrderSentinel::new(mode, "exchange-merge", sentinel_stats.clone()));

        Ok(ShardedExecutor {
            pool,
            pending: vec![vec![Vec::new(); num_sources]; shards],
            pending_count: 0,
            outputs,
            merge,
            merge_sources,
            promised: vec![None; shards],
            route_hw: vec![None; num_sources],
            punct_hw: vec![None; num_sources],
            floors: vec![None; shards],
            ordered,
            keys,
            shards,
            num_sources,
            source_names,
            closed: vec![false; num_sources],
            merge_closed: false,
            sentinel,
            sentinel_stats,
            merge_heartbeats: 0,
            dot,
        })
    }

    /// Number of shards actually running.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Number of sources of the sharded component.
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// The sharded plan rendered as Graphviz DOT: exchange nodes, shard
    /// replica clusters and the merge stage.
    pub fn plan_dot(&self) -> &str {
        &self.dot
    }

    /// Sends `cmd` to shard `shard`'s channel.
    fn send(&self, shard: usize, cmd: ShardCmd) -> Result<()> {
        self.pool.senders()[shard]
            .send(cmd)
            .map_err(|_| disconnected())
    }

    /// Sends one `cmd()` to every shard.
    fn broadcast(&self, cmd: impl Fn() -> ShardCmd) -> Result<()> {
        (0..self.shards).try_for_each(|j| self.send(j, cmd()))
    }

    /// Sends `cmd(reply)` to every shard, then awaits every reply, in
    /// shard order.
    fn ask<T>(&self, cmd: impl Fn(SyncSender<T>) -> ShardCmd) -> Result<Vec<T>> {
        let replies = (0..self.shards)
            .map(|j| {
                let (tx, rx) = mpsc::sync_channel(1);
                self.send(j, cmd(tx)).map(|()| rx)
            })
            .collect::<Result<Vec<_>>>()?;
        replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| disconnected()))
            .collect()
    }

    /// Ships every coalesced run to its shard, preserving per-source route
    /// order. Must precede any non-data command.
    fn flush_items(&mut self) -> Result<()> {
        if self.pending_count == 0 {
            return Ok(());
        }
        for shard in 0..self.shards {
            for i in 0..self.num_sources {
                let run = &mut self.pending[shard][i];
                if run.is_empty() {
                    continue;
                }
                self.pending_count -= run.len();
                let tuples = std::mem::take(run);
                self.send(shard, ShardCmd::Batch(SourceId(i), tuples))?;
            }
        }
        Ok(())
    }

    /// Routes a data tuple to its key shard. Ordered sources are checked
    /// at the router — an out-of-order tuple fails here, exactly like the
    /// serial source buffer would, *before* it can poison one shard.
    pub fn ingest(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        let i = source.0;
        if self.closed[i] {
            return Err(Error::runtime(format!(
                "source `{}` is closed",
                self.source_names[i]
            )));
        }
        if tuple.is_punctuation() {
            return Err(Error::runtime(format!(
                "ingest on source `{}` requires a data tuple; \
                 use ingest_heartbeat for punctuation",
                self.source_names[i]
            )));
        }
        if self.ordered[i] {
            if let Some(hw) = self.route_hw[i] {
                if tuple.ts < hw {
                    return Err(Error::OutOfOrder {
                        context: format!("src:{} (exchange router)", self.source_names[i]),
                        got: tuple.ts.as_micros(),
                        watermark: hw.as_micros(),
                    });
                }
            }
            self.route_hw[i] = self.route_hw[i].max(Some(tuple.ts));
        }
        let shard = route_shard(
            tuple.values().expect("data tuple"),
            self.keys[i],
            self.shards,
        );
        let run = &mut self.pending[shard][i];
        run.push(tuple);
        self.pending_count += 1;
        if run.len() >= INGEST_BATCH {
            let tuples = std::mem::take(run);
            self.pending_count -= tuples.len();
            self.send(shard, ShardCmd::Batch(source, tuples))?;
        }
        Ok(())
    }

    /// Broadcasts a heartbeat punctuation to every shard (each drops it
    /// if stale locally) and raises the source's punctuation high-water.
    pub fn ingest_heartbeat(&mut self, source: SourceId, ts: Timestamp) -> Result<()> {
        if self.closed[source.0] {
            return Err(Error::runtime(format!(
                "source `{}` is closed",
                self.source_names[source.0]
            )));
        }
        self.flush_items()?;
        self.punct_hw[source.0] = self.punct_hw[source.0].max(Some(ts));
        self.broadcast(|| ShardCmd::Heartbeat(source, ts))
    }

    /// Declares end-of-stream on a source, broadcast to every shard.
    /// Idempotent, like [`Executor::close_source`].
    pub fn close_source(&mut self, source: SourceId) -> Result<()> {
        if self.closed[source.0] {
            return Ok(());
        }
        self.flush_items()?;
        self.closed[source.0] = true;
        self.punct_hw[source.0] = Some(Timestamp::MAX);
        self.broadcast(|| ShardCmd::Close(source))
    }

    /// Advances every shard's clock and the merge clock to `ts`.
    pub fn advance_to(&mut self, ts: Timestamp) -> Result<()> {
        self.flush_items()?;
        self.broadcast(|| ShardCmd::AdvanceTo(ts))?;
        self.merge.clock().advance_to(ts);
        self.merge.refresh_idle();
        Ok(())
    }

    /// The sharded quiescence barrier: flush routed runs, run every shard
    /// to quiescence in parallel, drain their emissions into the merge
    /// stage, and advance the merge — injecting floor heartbeats only
    /// when the merge union actually starves. Returns total steps taken.
    pub fn run_until_quiescent(&mut self, max_steps: u64) -> Result<u64> {
        self.flush_items()?;
        let total = self.shard_round(max_steps, false)?;
        Ok(total + self.pump_merge(max_steps)?)
    }

    /// Sends one `RunBatch` to every shard and awaits all replies, folding
    /// each reported floor into `floors` and surfacing the first error.
    /// With `promise`, the replicas also ask their ETS policies for source
    /// promises (the merge-starvation hop).
    fn shard_round(&mut self, max_steps: u64, promise: bool) -> Result<u64> {
        let bounds: Arc<[Option<Timestamp>]> = self
            .route_hw
            .iter()
            .zip(&self.punct_hw)
            .map(|(&routed, &punct)| routed.max(punct))
            .collect();
        let replies = self.ask(|reply| ShardCmd::RunBatch {
            max_steps,
            promise,
            bounds: bounds.clone(),
            reply,
        })?;
        let mut total = 0u64;
        let mut first_err = None;
        for (j, reply) in replies.into_iter().enumerate() {
            match reply {
                Ok((n, floor)) => {
                    total += n;
                    self.floors[j] = self.floors[j].max(floor);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(total)
    }

    /// Synchronizes with every shard without executing work beyond what
    /// is already queued (see [`ParallelExecutor::barrier`]).
    ///
    /// [`ParallelExecutor::barrier`]: crate::ParallelExecutor::barrier
    pub fn barrier(&mut self) -> Result<()> {
        self.run_until_quiescent(0).map(|_| ())
    }

    /// Drains every shard's emission queue into the merge stage, checking
    /// frontier consistency against the floors already promised to (and
    /// consumed by) the merge union.
    fn drain_outputs(&mut self) -> Result<()> {
        for j in 0..self.shards {
            let drained: Vec<Tuple> = {
                let mut q = self.outputs[j].queue.lock().expect("shard output lock");
                std::mem::take(&mut *q)
            };
            if drained.is_empty() {
                continue;
            }
            if let (Some(sentinel), Some(floor)) = (&self.sentinel, self.promised[j]) {
                for t in &drained {
                    sentinel.check_frontier_consistency(&format!("merge{j}"), t.ts, floor)?;
                }
            }
            self.merge.ingest_batch(self.merge_sources[j], drained)?;
        }
        Ok(())
    }

    /// Drains shard emissions into the merge stage and advances it.
    fn pump_merge(&mut self, max_steps: u64) -> Result<u64> {
        self.drain_outputs()?;
        let mut total = self.merge.run_until_quiescent(max_steps)?;
        // On-demand frontier advance at the merge: only while tuples are
        // observably stuck behind a lagging shard register.
        let mut promise_spent = false;
        loop {
            if self.merge.graph().total_queued() == 0 {
                break;
            }
            let mut advanced = false;
            for j in 0..self.shards {
                if self.merge.graph().source(self.merge_sources[j]).closed {
                    continue;
                }
                let raw = self.floors[j];
                if raw == Some(Timestamp::MAX) {
                    continue; // the close path injects Timestamp::MAX itself
                }
                let advance = {
                    let g = self.merge.graph();
                    let b = g.buffers[g.sources[self.merge_sources[j].0].buffer.0].borrow();
                    frontier_advance(raw, b.high_water(), b.punct_high_water())
                };
                if let Some(floor) = advance {
                    self.merge.ingest_heartbeat(self.merge_sources[j], floor)?;
                    self.promised[j] = Some(floor);
                    self.merge_heartbeats += 1;
                    advanced = true;
                }
            }
            if !advanced {
                // No floor moved and tuples are still stuck: the serial
                // analogue of this moment is a backtrack reaching a
                // starved source and asking its ETS register for a
                // promise. Complete that final hop across the exchange —
                // one promise round per pump (the clocks are static here,
                // so a second round could not promise more).
                if promise_spent {
                    break;
                }
                promise_spent = true;
                self.shard_round(max_steps, true)?;
                self.drain_outputs()?;
                continue;
            }
            total += self.merge.run_until_quiescent(max_steps)?;
        }
        // End-of-stream: every source closed and every shard fully drained
        // (a `Timestamp::MAX` floor proves empty buffers and released holds).
        if !self.merge_closed
            && self.closed.iter().all(|&c| c)
            && self.floors.iter().all(|&f| f == Some(Timestamp::MAX))
        {
            for j in 0..self.shards {
                self.merge.close_source(self.merge_sources[j])?;
            }
            self.merge_closed = true;
            total += self.merge.run_until_quiescent(max_steps)?;
        }
        Ok(total)
    }

    /// Collects a merged snapshot from every shard plus the merge stage.
    /// Callable through a shared reference: the snapshot command queues
    /// behind any in-flight `RunBatch`, so counters are read at a worker
    /// quiescence point (routed-but-unflushed tuples are not yet visible).
    pub fn snapshot(&self) -> Result<ShardedSnapshot> {
        let snaps = self.ask(|reply| ShardCmd::Snapshot { reply })?;
        let mut stats = ExecStats::default();
        let mut profile: Vec<OpProfile> = Vec::new();
        for snap in &snaps {
            stats.merge(&snap.stats);
            if profile.is_empty() {
                profile = snap.profile.clone();
            } else {
                for (acc, p) in profile.iter_mut().zip(&snap.profile) {
                    acc.steps += p.steps;
                    acc.consumed += p.consumed;
                    acc.produced += p.produced;
                    acc.busy_micros += p.busy_micros;
                    // High-water, not a counter: the largest state held by
                    // any single replica of this operator.
                    acc.peak_state = acc.peak_state.max(p.peak_state);
                    acc.compacted_runs += p.compacted_runs;
                    acc.spilled_bytes += p.spilled_bytes;
                    acc.run_drops += p.run_drops;
                }
            }
        }
        stats.merge(&self.merge.stats());
        Ok(ShardedSnapshot {
            stats,
            profile,
            floors: self.floors.clone(),
            frontier_advances: snaps.iter().map(|s| s.advances).collect(),
            merge_heartbeats: self.merge_heartbeats,
            frontier_violations: self.sentinel_stats.frontier_violations(),
            busy_nanos: snaps.iter().map(|s| s.busy_nanos).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_ops::{AggExpr, AggFunc, Filter, SlidingAggregate};
    use millstream_types::{DataType, Expr, Field, TimeDelta, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
    }

    fn data(ts: u64, k: i64, v: i64) -> Tuple {
        Tuple::data(
            Timestamp::from_micros(ts),
            vec![Value::Int(k), Value::Int(v)],
        )
    }

    /// source → σ(v ≥ 0) → sink, replicated per shard.
    fn filter_factory(out: ShardOutput) -> Result<QueryGraph> {
        let mut b = GraphBuilder::new();
        let s = b.source("S", schema(), TimestampKind::Internal);
        let f = b.operator(
            Box::new(Filter::new("σ", schema(), Expr::col(1).ge(Expr::lit(0)))),
            vec![Input::Source(s)],
        )?;
        b.operator(
            Box::new(Sink::new("shard-sink", schema(), out)),
            vec![Input::Op(f)],
        )?;
        b.build()
    }

    type Delivered = Arc<Mutex<Vec<(Tuple, Timestamp)>>>;

    fn sharded(shards: usize) -> (ShardedExecutor, Delivered) {
        let delivered: Delivered = Arc::default();
        let sink = delivered.clone();
        struct Coll(Arc<Mutex<Vec<(Tuple, Timestamp)>>>);
        impl SinkCollector for Coll {
            fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
                self.0.lock().unwrap().push((tuple, now));
            }
        }
        let exec = ShardedExecutor::new(
            |_, out| filter_factory(out),
            schema(),
            Box::new(Coll(sink)),
            ShardedConfig::new(CostModel::free(), EtsPolicy::on_demand(), shards),
        )
        .unwrap();
        (exec, delivered)
    }

    #[test]
    fn shards_partition_and_merge_preserves_order() {
        let (mut ex, delivered) = sharded(4);
        assert_eq!(ex.num_shards(), 4);
        let s = SourceId(0);
        for i in 0..200u64 {
            ex.ingest(s, data(i, i as i64 % 7, i as i64)).unwrap();
        }
        ex.close_source(s).unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
        let got = delivered.lock().unwrap();
        assert_eq!(got.len(), 200, "every tuple survives the exchange");
        let ts: Vec<u64> = got.iter().map(|(t, _)| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "merge restores global timestamp order");
        let floors = ex.snapshot().unwrap().floors;
        assert_eq!(floors, vec![Some(Timestamp::MAX); 4], "close is exact");
    }

    #[test]
    fn single_shard_degenerates_cleanly() {
        let (mut ex, delivered) = sharded(1);
        let s = SourceId(0);
        for i in 0..10u64 {
            ex.ingest(s, data(i, 0, i as i64)).unwrap();
        }
        ex.close_source(s).unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(delivered.lock().unwrap().len(), 10);
    }

    #[test]
    fn router_rejects_out_of_order_on_ordered_sources() {
        let (mut ex, _) = sharded(2);
        let s = SourceId(0);
        ex.ingest(s, data(100, 0, 1)).unwrap();
        let err = ex.ingest(s, data(5, 0, 2)).unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
    }

    #[test]
    fn routing_is_deterministic_and_key_grouped() {
        // Same key column value → same shard, regardless of other columns.
        for shards in [2usize, 4, 8] {
            for k in 0..50i64 {
                let a = route_shard(&[Value::Int(k), Value::Int(1)], ShardKey::Column(0), shards);
                let b = route_shard(
                    &[Value::Int(k), Value::Int(999)],
                    ShardKey::Column(0),
                    shards,
                );
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // Whole-row routing spreads distinct rows across shards.
        let hit: std::collections::HashSet<usize> = (0..64)
            .map(|i| route_shard(&[Value::Int(i), Value::Int(i)], ShardKey::WholeRow, 4))
            .collect();
        assert!(hit.len() > 1, "64 distinct rows must not all hash together");
    }

    #[test]
    fn keyed_aggregate_groups_stay_whole_per_shard() {
        // source → Σ(GROUP BY k, window 1ms) → sink, keyed exchange on k.
        fn out_schema() -> Schema {
            Schema::new(vec![
                Field::new("window_start", DataType::Int),
                Field::new("k", DataType::Int),
                Field::new("sum", DataType::Int),
            ])
        }
        fn agg_factory(out: ShardOutput) -> Result<QueryGraph> {
            let mut b = GraphBuilder::new();
            let s = b.source("S", schema(), TimestampKind::Internal);
            let a = b.operator(
                Box::new(SlidingAggregate::new(
                    "Σ",
                    &schema(),
                    TimeDelta::from_millis(1),
                    TimeDelta::from_millis(1),
                    vec![("k".into(), Expr::col(0))],
                    vec![AggExpr {
                        func: AggFunc::Sum,
                        arg: Expr::col(1),
                        name: "sum".into(),
                    }],
                )?),
                vec![Input::Source(s)],
            )?;
            b.operator(
                Box::new(Sink::new("shard-sink", out_schema(), out)),
                vec![Input::Op(a)],
            )?;
            b.build()
        }
        let delivered: Arc<Mutex<Vec<Tuple>>> = Arc::default();
        struct Coll(Arc<Mutex<Vec<Tuple>>>);
        impl SinkCollector for Coll {
            fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
                self.0.lock().unwrap().push(tuple);
            }
        }
        let mut ex = ShardedExecutor::new(
            |_, out| agg_factory(out),
            out_schema(),
            Box::new(Coll(delivered.clone())),
            ShardedConfig::new(CostModel::free(), EtsPolicy::on_demand(), 4)
                .with_keys(vec![ShardKey::Column(0)]),
        )
        .unwrap();
        let s = SourceId(0);
        // Two windows × 4 keys × 25 tuples of v=1 each.
        for w in 0..2u64 {
            for i in 0..100u64 {
                let ts = w * 1000 + i * 10;
                ex.ingest(s, data(ts, (i % 4) as i64, 1)).unwrap();
            }
        }
        ex.close_source(s).unwrap();
        ex.run_until_quiescent(10_000_000).unwrap();
        let got = delivered.lock().unwrap();
        // Keyed routing keeps each group on one shard: exactly one output
        // row per (window, key), never partial sums from split groups.
        assert_eq!(got.len(), 8, "2 windows × 4 keys: {got:?}");
        for t in got.iter() {
            let v = t.values().unwrap();
            assert_eq!(v[2], Value::Int(25), "whole group on one shard: {v:?}");
        }
    }

    #[test]
    fn starved_merge_unblocks_via_frontier_summaries() {
        // Key-skewed input: every tuple routes to one shard; the other
        // shards publish floors that let the merge release output without
        // waiting for data that will never come.
        let (mut ex, delivered) = sharded(4);
        let s = SourceId(0);
        for i in 0..50u64 {
            // Identical rows → identical shard.
            ex.ingest(s, data(i, 42, 7)).unwrap();
        }
        ex.run_until_quiescent(1_000_000).unwrap();
        // Without closing: merged output may lag behind the skewed shard
        // only until floors catch up; a heartbeat pushes them past it.
        ex.ingest_heartbeat(s, Timestamp::from_micros(1000))
            .unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(
            delivered.lock().unwrap().len(),
            50,
            "floors from empty shards must release the merge"
        );
        let snap = ex.snapshot().unwrap();
        assert!(
            snap.floors.iter().all(|f| f.is_some()),
            "every shard published a floor: {:?}",
            snap.floors
        );
        ex.close_source(s).unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
    }

    #[test]
    fn heartbeat_just_below_max_releases_the_merge() {
        // A heartbeat one microsecond below `Timestamp::MAX` is an ordinary
        // promise, not end-of-stream: the serial engine delivers both rows,
        // so the merge must not hold either back until close.
        let (mut ex, delivered) = sharded(2);
        let s = SourceId(0);
        ex.ingest(s, data(10, 0, 1)).unwrap();
        ex.ingest(s, data(20, 1, 2)).unwrap();
        ex.ingest_heartbeat(s, Timestamp::from_micros(u64::MAX - 1))
            .unwrap();
        ex.run_until_quiescent(1_000_000).unwrap();
        let got = delivered.lock().unwrap();
        assert_eq!(got.len(), 2, "{:?}", ex.snapshot().unwrap().floors);
    }

    /// An operator whose every step panics.
    struct PanickingOp(Schema);

    impl millstream_ops::Operator for PanickingOp {
        fn name(&self) -> &str {
            "panicker"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn output_schema(&self) -> &Schema {
            &self.0
        }
        fn poll(&mut self, _ctx: &millstream_ops::OpContext<'_>) -> millstream_ops::Poll {
            millstream_ops::Poll::Ready
        }
        fn step(
            &mut self,
            _ctx: &millstream_ops::OpContext<'_>,
        ) -> Result<millstream_ops::StepOutcome> {
            panic!("injected operator failure");
        }
    }

    #[test]
    fn shard_worker_panic_surfaces_at_the_barrier() {
        fn panic_factory(out: ShardOutput) -> Result<QueryGraph> {
            let mut b = GraphBuilder::new();
            let s = b.source("S", schema(), TimestampKind::Internal);
            let p = b.operator(Box::new(PanickingOp(schema())), vec![Input::Source(s)])?;
            b.operator(
                Box::new(Sink::new("shard-sink", schema(), out)),
                vec![Input::Op(p)],
            )?;
            b.build()
        }
        let mut ex = ShardedExecutor::new(
            |_, out| panic_factory(out),
            schema(),
            Box::new(ShardOutput::default()),
            ShardedConfig::new(CostModel::free(), EtsPolicy::on_demand(), 2),
        )
        .unwrap();
        ex.ingest(SourceId(0), data(1, 0, 1)).unwrap();
        let msg = ex.run_until_quiescent(1_000).unwrap_err().to_string();
        assert!(msg.contains("worker panicked"), "{msg}");
        assert!(msg.contains("injected operator failure"), "{msg}");
        // The worker survived the panic: its channel still answers.
        let snap = ex.snapshot().unwrap();
        assert_eq!(snap.busy_nanos.len(), 2);
    }

    #[test]
    fn plan_dot_renders_exchange_and_shards() {
        let (ex, _) = sharded(2);
        let dot = ex.plan_dot();
        assert!(dot.contains("exchange ×2"), "{dot}");
        assert!(dot.contains("cluster_shard0"), "{dot}");
        assert!(dot.contains("cluster_shard1"), "{dot}");
        assert!(dot.contains("ts-merge"), "{dot}");
    }
}
