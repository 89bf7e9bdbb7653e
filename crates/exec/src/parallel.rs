//! Parallel multi-component execution — one worker thread per connected
//! component of the query graph.
//!
//! The paper's §3 execution model is strictly single-threaded, but its
//! scheduling rules never cross a component boundary: Forward walks output
//! arcs, Encore stays on the current operator, and Backtrack walks *input*
//! arcs back to a starved source — all arcs internal to one connected
//! component. On-demand ETS generation (§4) likewise happens at the
//! starved component's own sources. Independent components are therefore
//! embarrassingly parallel, and [`ParallelExecutor`] exploits exactly
//! that: [`QueryGraph::partition_components`] splits the graph, and each
//! component's sub-graph runs on its **own unmodified single-threaded
//! [`Executor`]** hosted by a worker thread. The `RefCell` hot path is
//! untouched; only the leaf counters (clock, occupancy tracker) are
//! atomics so a component can move across the thread boundary.
//!
//! ## Cross-thread surface
//!
//! Everything crosses on **one FIFO command channel per worker**, so a
//! heartbeat or `advance_to` can never be undercut by a later data tuple
//! sent on the same worker. Workers mutate state on ingest-class commands
//! but only *execute* on an explicit [`Cmd::Run`], which preserves the
//! serial baseline's ingest-then-run interleaving exactly — queues form
//! identically, so `tests/parallel_equivalence.rs` can assert equality of
//! steps, work units, ETS counts and final clocks, not just delivery.
//!
//! ## Quiescence barrier
//!
//! [`ParallelExecutor::run_until_quiescent`] broadcasts [`Cmd::Run`] and
//! then blocks on every worker's reply. Because components are
//! independent, a component that reports quiescence cannot be re-awakened
//! by another component's progress, so one pass per component is a true
//! global quiescence check. Worker-side errors (e.g. an out-of-order
//! tuple in a fire-and-forget ingest) are stashed and surfaced at the next
//! barrier.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;

use std::sync::mpsc::{self, Receiver, Sender, SyncSender};

use millstream_buffer::CheckMode;
use millstream_types::{Error, Result, Timestamp, Tuple};

use crate::clock::{CostModel, VirtualClock};
use crate::executor::{ExecOptions, ExecStats, Executor, OpProfile, SchedPolicy};
use crate::graph::{ComponentGraph, NodeId, QueryGraph, SourceId};
use crate::strategy::EtsPolicy;

/// Construction-time configuration for a [`ParallelExecutor`] — the same
/// knobs [`Executor`] takes, plus the worker count.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Virtual CPU cost model, applied per component.
    pub cost: CostModel,
    /// Timestamp-management policy.
    pub policy: EtsPolicy,
    /// Operator-scheduling discipline inside each component.
    pub sched: SchedPolicy,
    /// Execution tuning knobs (Encore batching).
    pub opts: ExecOptions,
    /// Worker threads to spawn. Components are multiplexed round-robin
    /// onto `min(workers, components)` threads, so any positive value is
    /// valid; extra workers beyond the component count are not spawned.
    pub workers: usize,
    /// Invariant-checking override for every component executor. `None`
    /// (default) inherits the `MILLSTREAM_CHECK` environment variable.
    pub check: Option<CheckMode>,
}

impl ParallelConfig {
    /// A config with default scheduling/tuning and the given essentials.
    pub fn new(cost: CostModel, policy: EtsPolicy, workers: usize) -> Self {
        ParallelConfig {
            cost,
            policy,
            sched: SchedPolicy::default(),
            opts: ExecOptions::default(),
            workers,
            check: None,
        }
    }

    /// Overrides the invariant-checking mode (builder style); the default
    /// comes from the `MILLSTREAM_CHECK` environment variable.
    pub fn with_check_mode(mut self, mode: CheckMode) -> Self {
        self.check = Some(mode);
        self
    }

    /// Selects the operator-scheduling discipline (builder style).
    pub fn with_sched_policy(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }

    /// Sets the Encore batch size (builder style).
    pub fn with_encore_batch(mut self, encore_batch: usize) -> Self {
        self.opts.encore_batch = encore_batch.max(1);
        self
    }
}

/// A pool of worker threads fed by one FIFO command channel each.
///
/// This is the single home of the spawn/teardown protocol shared by
/// [`ParallelExecutor`] (per-component parallelism) and
/// [`crate::ShardedExecutor`] (intra-component exchange edges): on drop the
/// pool sends an explicit stop command to every worker and joins the
/// threads. The explicit stop beats dropping the senders: a worker blocked
/// in `recv()` retires on a command it can see, not on every clone of its
/// channel having been dropped.
pub(crate) struct WorkerPool<C: Send + 'static> {
    senders: Vec<Sender<C>>,
    threads: Vec<JoinHandle<()>>,
    stop: fn() -> C,
}

impl<C: Send + 'static> WorkerPool<C> {
    /// Spawns one thread per entry of `states`, each running
    /// `body(receiver, state)` until the body returns (on its stop
    /// command). Threads are named `{name_prefix}-{index}`.
    pub fn spawn<S: Send + 'static>(
        name_prefix: &str,
        states: Vec<S>,
        stop: fn() -> C,
        body: fn(Receiver<C>, S),
    ) -> WorkerPool<C> {
        let mut senders = Vec::with_capacity(states.len());
        let mut threads = Vec::with_capacity(states.len());
        for (w, state) in states.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name_prefix}-{w}"))
                    .spawn(move || body(rx, state))
                    .expect("spawn worker thread"),
            );
        }
        WorkerPool {
            senders,
            threads,
            stop,
        }
    }

    /// The command senders, indexed by worker.
    pub fn senders(&self) -> &[Sender<C>] {
        &self.senders
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.senders.len()
    }
}

impl<C: Send + 'static> Drop for WorkerPool<C> {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send((self.stop)());
        }
        self.senders.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Commands crossing from the coordinator to a worker.
enum Cmd {
    /// Ingest a run of data tuples at a component's local source in one
    /// command — the coordinator's coalesced path. Applied via
    /// [`Executor::ingest_batch`], so it is semantically one
    /// [`Executor::ingest`] per tuple at a fraction of the channel round
    /// trips.
    IngestBatch {
        comp: usize,
        source: SourceId,
        tuples: Vec<Tuple>,
    },
    /// Ingest a heartbeat punctuation.
    Heartbeat {
        comp: usize,
        source: SourceId,
        ts: Timestamp,
    },
    /// Declare end-of-stream on a source.
    Close { comp: usize, source: SourceId },
    /// Advance every hosted component's clock to `ts`.
    AdvanceTo(Timestamp),
    /// Run every hosted component until quiescent (or `max_steps` each)
    /// and reply with the total steps taken, or the first stashed error.
    Run {
        max_steps: u64,
        reply: SyncSender<Result<u64>>,
    },
    /// Reply with a state snapshot of every hosted component.
    Snapshot {
        reply: SyncSender<Vec<CompSnapshot>>,
    },
    /// Exit the worker loop. Sent when the [`WorkerPool`] drops.
    Stop,
}

/// Per-component state snapshot shipped back over the snapshot barrier.
struct CompSnapshot {
    comp: usize,
    stats: ExecStats,
    profile: Vec<OpProfile>,
    /// Per local source: (on-demand ETS generated, data tuples ingested).
    sources: Vec<(u64, u64)>,
    clock: Timestamp,
    total_queued: usize,
}

/// A component hosted by a worker thread.
struct Slot {
    comp: usize,
    exec: Executor,
}

/// Converts a caught panic payload into a barrier-reportable error.
pub(crate) fn panic_error(payload: Box<dyn std::any::Any + Send>) -> Error {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    Error::runtime(format!("worker panicked: {msg}"))
}

/// Worker main loop: apply ingest-class commands in arrival order, execute
/// only on [`Cmd::Run`], stash the first error until the next barrier.
///
/// A panicking operator must not take the whole process down (the default
/// for a panic on a detached thread is an abort-on-join-less-exit or a
/// deadlocked barrier): every state-mutating command runs under
/// `catch_unwind`, the payload is converted into a runtime error, and the
/// thread keeps serving its channel so the coordinator sees the failure at
/// the next barrier like any other stashed error.
fn worker_loop(rx: Receiver<Cmd>, mut slots: Vec<Slot>) {
    let mut pending_err: Option<Error> = None;
    let stash = |r: std::result::Result<(), Error>, pending: &mut Option<Error>| {
        if let Err(e) = r {
            pending.get_or_insert(e);
        }
    };
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::IngestBatch {
                comp,
                source,
                tuples,
            } => {
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let slot = slots.iter_mut().find(|s| s.comp == comp).expect("routed");
                    slot.exec.ingest_batch(source, tuples)
                }))
                .unwrap_or_else(|p| Err(panic_error(p)));
                stash(r, &mut pending_err);
            }
            Cmd::Heartbeat { comp, source, ts } => {
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let slot = slots.iter_mut().find(|s| s.comp == comp).expect("routed");
                    slot.exec.ingest_heartbeat(source, ts)
                }))
                .unwrap_or_else(|p| Err(panic_error(p)));
                stash(r, &mut pending_err);
            }
            Cmd::Close { comp, source } => {
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let slot = slots.iter_mut().find(|s| s.comp == comp).expect("routed");
                    slot.exec.close_source(source)
                }))
                .unwrap_or_else(|p| Err(panic_error(p)));
                stash(r, &mut pending_err);
            }
            Cmd::AdvanceTo(ts) => {
                for slot in &mut slots {
                    slot.exec.clock().advance_to(ts);
                    slot.exec.refresh_idle();
                }
            }
            Cmd::Run { max_steps, reply } => {
                let result = match pending_err.take() {
                    Some(e) => Err(e),
                    None => {
                        // Hosted components are mutually independent, so
                        // one quiescence pass each is a complete check.
                        std::panic::catch_unwind(AssertUnwindSafe(|| {
                            let mut taken = 0;
                            let mut outcome = Ok(());
                            for slot in &mut slots {
                                match slot.exec.run_until_quiescent(max_steps) {
                                    Ok(n) => taken += n,
                                    Err(e) => {
                                        outcome = Err(e);
                                        break;
                                    }
                                }
                            }
                            outcome.map(|()| taken)
                        }))
                        .unwrap_or_else(|p| Err(panic_error(p)))
                    }
                };
                let _ = reply.send(result);
            }
            Cmd::Snapshot { reply } => {
                let snaps = slots
                    .iter()
                    .map(|slot| CompSnapshot {
                        comp: slot.comp,
                        stats: slot.exec.stats(),
                        profile: slot.exec.profile().to_vec(),
                        sources: slot
                            .exec
                            .graph()
                            .source_ids()
                            .map(|s| {
                                let st = slot.exec.graph().source(s);
                                (st.ets_generated, st.ingested)
                            })
                            .collect(),
                        clock: slot.exec.clock().now(),
                        total_queued: slot.exec.graph().total_queued(),
                    })
                    .collect();
                let _ = reply.send(snaps);
            }
            Cmd::Stop => break,
        }
    }
}

fn disconnected() -> Error {
    Error::runtime("parallel worker disconnected")
}

/// Tuples coalesced per [`Cmd::IngestBatch`] by the coordinator before the
/// run is forced onto the channel. Large enough to amortize the channel
/// round trip, small enough to keep ingest latency negligible.
pub(crate) const INGEST_BATCH: usize = 64;

/// Merged cross-component state, collected over a snapshot barrier.
#[derive(Debug, Clone)]
pub struct ParallelSnapshot {
    /// Executor counters summed over all components.
    pub stats: ExecStats,
    /// Per-operator profile in **global** node order (the order of the
    /// unpartitioned graph).
    pub profile: Vec<OpProfile>,
    /// Per **global** source: on-demand ETS generated.
    pub ets_per_source: Vec<u64>,
    /// Per **global** source: data tuples ingested.
    pub ingested_per_source: Vec<u64>,
    /// Each component's virtual clock reading. Components run on private
    /// clocks, so there is one reading per component, not a global "now".
    pub component_clocks: Vec<Timestamp>,
    /// Each component's unmerged executor counters.
    pub component_stats: Vec<ExecStats>,
    /// Tuples currently queued across all components.
    pub total_queued: usize,
}

/// Runs a multi-component [`QueryGraph`] across worker threads — one
/// single-threaded [`Executor`] per connected component, components
/// multiplexed round-robin onto `min(workers, components)` threads.
pub struct ParallelExecutor {
    /// The worker threads and their command channels.
    pool: WorkerPool<Cmd>,
    /// Per **global** source: data tuples accepted by [`Self::ingest`] but
    /// not yet shipped — the coordinator-side coalescing buffer. Flushed
    /// as one [`Cmd::IngestBatch`] when full or before any other command,
    /// preserving the per-worker FIFO discipline.
    pending: Mutex<Vec<Vec<Tuple>>>,
    /// Lifetime count of commands sent over the worker channels. The
    /// batching regression test pins round trips per tuple.
    commands_sent: AtomicU64,
    /// Global source id → (component, local source id).
    source_route: Vec<(usize, SourceId)>,
    /// Component → worker index.
    comp_worker: Vec<usize>,
    /// Component → local→global node ids (for profile merging).
    comp_nodes: Vec<Vec<NodeId>>,
    /// Component → local→global source ids.
    comp_sources: Vec<Vec<SourceId>>,
    num_ops: usize,
    num_sources: usize,
}

impl ParallelExecutor {
    /// Partitions `graph` into connected components and spawns the worker
    /// threads. A single-component graph degenerates to one worker — the
    /// serial executor behind a channel.
    pub fn new(graph: QueryGraph, config: ParallelConfig) -> ParallelExecutor {
        let num_ops = graph.num_ops();
        let num_sources = graph.num_sources();
        let partition = graph.partition_components();
        let count = partition.components.len();
        let workers = config.workers.max(1).min(count.max(1));

        let mut comp_nodes = Vec::with_capacity(count);
        let mut comp_sources = Vec::with_capacity(count);
        let mut comp_worker = Vec::with_capacity(count);
        // Round-robin multiplexing: component c runs on worker c % workers.
        let mut slots_of: Vec<Vec<Slot>> = (0..workers).map(|_| Vec::new()).collect();
        for (c, part) in partition.components.into_iter().enumerate() {
            let ComponentGraph {
                graph,
                nodes,
                sources,
                ..
            } = part;
            let mut exec = Executor::new(graph, VirtualClock::shared(), config.cost, config.policy)
                .with_sched_policy(config.sched)
                .with_exec_options(config.opts);
            if let Some(mode) = config.check {
                exec = exec.with_check_mode(mode);
            }
            comp_worker.push(c % workers);
            slots_of[c % workers].push(Slot { comp: c, exec });
            comp_nodes.push(nodes);
            comp_sources.push(sources);
        }

        let pool = WorkerPool::spawn("millstream-worker", slots_of, || Cmd::Stop, worker_loop);

        ParallelExecutor {
            pool,
            pending: Mutex::new(vec![Vec::new(); num_sources]),
            commands_sent: AtomicU64::new(0),
            source_route: partition.source_map,
            comp_worker,
            comp_nodes,
            comp_sources,
            num_ops,
            num_sources,
        }
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.comp_worker.len()
    }

    /// Number of worker threads actually spawned.
    pub fn num_workers(&self) -> usize {
        self.pool.len()
    }

    /// The component a global source routes to.
    pub fn component_of(&self, source: SourceId) -> usize {
        self.source_route[source.0].0
    }

    fn sender_for(&self, comp: usize) -> &Sender<Cmd> {
        &self.pool.senders()[self.comp_worker[comp]]
    }

    /// Commands this coordinator has sent over the worker channels —
    /// coalesced batches count once.
    pub fn commands_sent(&self) -> u64 {
        self.commands_sent.load(Ordering::Relaxed)
    }

    fn send(&self, comp: usize, cmd: Cmd) -> Result<()> {
        self.commands_sent.fetch_add(1, Ordering::Relaxed);
        self.sender_for(comp).send(cmd).map_err(|_| disconnected())
    }

    fn broadcast(&self, mut make: impl FnMut() -> Cmd) -> Result<()> {
        for tx in self.pool.senders() {
            self.commands_sent.fetch_add(1, Ordering::Relaxed);
            tx.send(make()).map_err(|_| disconnected())?;
        }
        Ok(())
    }

    /// Ships every coalesced ingest run as one [`Cmd::IngestBatch`]. Must
    /// precede any other command send so a heartbeat, close, or clock
    /// advance can never undercut data accepted before it.
    fn flush_pending(&self) -> Result<()> {
        let mut pending = self.pending.lock().expect("pending lock");
        for (global, run) in pending.iter_mut().enumerate() {
            if run.is_empty() {
                continue;
            }
            let (comp, local) = self.source_route[global];
            self.send(
                comp,
                Cmd::IngestBatch {
                    comp,
                    source: local,
                    tuples: std::mem::take(run),
                },
            )?;
        }
        Ok(())
    }

    /// Ingests a data tuple at a global source (fire-and-forget; errors
    /// surface at the next barrier). Tuples coalesce in a per-source
    /// buffer and cross the channel as one [`Cmd::IngestBatch`] per
    /// [`INGEST_BATCH`] tuples — or earlier, when any other command needs
    /// the channel.
    pub fn ingest(&self, source: SourceId, tuple: Tuple) -> Result<()> {
        let full = {
            let mut pending = self.pending.lock().expect("pending lock");
            let run = &mut pending[source.0];
            run.push(tuple);
            (run.len() >= INGEST_BATCH).then(|| std::mem::take(run))
        };
        if let Some(tuples) = full {
            let (comp, local) = self.source_route[source.0];
            self.send(
                comp,
                Cmd::IngestBatch {
                    comp,
                    source: local,
                    tuples,
                },
            )?;
        }
        Ok(())
    }

    /// Ingests a run of data tuples at a global source with at most one
    /// channel round trip. The run joins the source's coalescing buffer
    /// so it can never reorder against tuples previously accepted by
    /// [`Self::ingest`]; a buffer at or past [`INGEST_BATCH`] ships
    /// immediately as one [`Cmd::IngestBatch`].
    pub fn ingest_batch(&self, source: SourceId, tuples: Vec<Tuple>) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        let full = {
            let mut pending = self.pending.lock().expect("pending lock");
            let run = &mut pending[source.0];
            if run.is_empty() {
                // Common case: nothing buffered, ship the caller's run
                // as-is without copying it into the buffer first.
                Some(tuples)
            } else {
                run.extend(tuples);
                (run.len() >= INGEST_BATCH).then(|| std::mem::take(run))
            }
        };
        if let Some(tuples) = full {
            let (comp, local) = self.source_route[source.0];
            self.send(
                comp,
                Cmd::IngestBatch {
                    comp,
                    source: local,
                    tuples,
                },
            )?;
        }
        Ok(())
    }

    /// Ingests a heartbeat punctuation at a global source.
    pub fn ingest_heartbeat(&self, source: SourceId, ts: Timestamp) -> Result<()> {
        self.flush_pending()?;
        let (comp, local) = self.source_route[source.0];
        self.send(
            comp,
            Cmd::Heartbeat {
                comp,
                source: local,
                ts,
            },
        )
    }

    /// Declares end-of-stream on a global source.
    pub fn close_source(&self, source: SourceId) -> Result<()> {
        self.flush_pending()?;
        let (comp, local) = self.source_route[source.0];
        self.send(
            comp,
            Cmd::Close {
                comp,
                source: local,
            },
        )
    }

    /// Advances every component's clock to `ts` (clocks never go
    /// backwards, so components already past `ts` are unaffected).
    pub fn advance_to(&self, ts: Timestamp) -> Result<()> {
        self.flush_pending()?;
        self.broadcast(|| Cmd::AdvanceTo(ts))
    }

    /// The quiescence barrier: every worker runs each hosted component
    /// until quiescent (or `max_steps` per component), in parallel; the
    /// call returns once **all** components are quiescent, with the total
    /// steps taken. The first worker-side error — including errors stashed
    /// by fire-and-forget ingest since the last barrier — is returned.
    pub fn run_until_quiescent(&self, max_steps: u64) -> Result<u64> {
        self.flush_pending()?;
        let mut replies = Vec::with_capacity(self.pool.len());
        for tx in self.pool.senders() {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            self.commands_sent.fetch_add(1, Ordering::Relaxed);
            tx.send(Cmd::Run {
                max_steps,
                reply: reply_tx,
            })
            .map_err(|_| disconnected())?;
            replies.push(reply_rx);
        }
        let mut total = 0;
        let mut first_err = None;
        for rx in replies {
            match rx.recv().map_err(|_| disconnected())? {
                Ok(n) => total += n,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Synchronizes with every worker without executing: drains the
    /// command queues and surfaces any stashed ingest error. Makes
    /// fire-and-forget errors observable at a deterministic point.
    pub fn barrier(&self) -> Result<()> {
        self.run_until_quiescent(0).map(|_| ())
    }

    /// Collects and merges a state snapshot from every component.
    pub fn snapshot(&self) -> Result<ParallelSnapshot> {
        self.flush_pending()?;
        let mut replies = Vec::with_capacity(self.pool.len());
        for tx in self.pool.senders() {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            self.commands_sent.fetch_add(1, Ordering::Relaxed);
            tx.send(Cmd::Snapshot { reply: reply_tx })
                .map_err(|_| disconnected())?;
            replies.push(reply_rx);
        }
        let mut stats = ExecStats::default();
        let mut profile: Vec<Option<OpProfile>> = vec![None; self.num_ops];
        let mut ets_per_source = vec![0u64; self.num_sources];
        let mut ingested_per_source = vec![0u64; self.num_sources];
        let mut component_clocks = vec![Timestamp::ZERO; self.num_components()];
        let mut component_stats = vec![ExecStats::default(); self.num_components()];
        let mut total_queued = 0;
        for rx in replies {
            for snap in rx.recv().map_err(|_| disconnected())? {
                let s = snap.stats;
                stats.merge(&s);
                for (local, p) in snap.profile.into_iter().enumerate() {
                    profile[self.comp_nodes[snap.comp][local].0] = Some(p);
                }
                for (local, (ets, ingested)) in snap.sources.into_iter().enumerate() {
                    let global = self.comp_sources[snap.comp][local].0;
                    ets_per_source[global] = ets;
                    ingested_per_source[global] = ingested;
                }
                component_clocks[snap.comp] = snap.clock;
                component_stats[snap.comp] = s;
                total_queued += snap.total_queued;
            }
        }
        Ok(ParallelSnapshot {
            stats,
            profile: profile
                .into_iter()
                .map(|p| p.expect("every node belongs to exactly one component"))
                .collect(),
            ets_per_source,
            ingested_per_source,
            component_clocks,
            component_stats,
            total_queued,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Input};
    use millstream_ops::{Filter, Sink, SinkCollector, Union};
    use millstream_types::{DataType, Expr, Field, Schema, TimestampKind, Value};
    use std::sync::{Arc, Mutex};

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

    /// Two components: S1→σ→sink and (S2,S3)→∪→sink.
    fn build() -> (QueryGraph, [SourceId; 3], Out, Out) {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let s2 = b.source("S2", schema(), TimestampKind::Internal);
        let s3 = b.source("S3", schema(), TimestampKind::Internal);
        let f = b
            .operator(
                Box::new(Filter::new("σ", schema(), Expr::col(0).ge(Expr::lit(0)))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let out1 = Out::default();
        b.operator(
            Box::new(Sink::new("sink1", schema(), out1.clone())),
            vec![Input::Op(f)],
        )
        .unwrap();
        let u = b
            .operator(
                Box::new(Union::new("∪", schema(), 2)),
                vec![Input::Source(s2), Input::Source(s3)],
            )
            .unwrap();
        let out2 = Out::default();
        b.operator(
            Box::new(Sink::new("sink2", schema(), out2.clone())),
            vec![Input::Op(u)],
        )
        .unwrap();
        (b.build().unwrap(), [s1, s2, s3], out1, out2)
    }

    fn data(ts: u64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
    }

    #[test]
    fn parallel_runs_both_components() {
        let (g, [s1, s2, s3], out1, out2) = build();
        let pex = ParallelExecutor::new(
            g,
            ParallelConfig::new(CostModel::free(), EtsPolicy::on_demand(), 2),
        );
        assert_eq!(pex.num_components(), 2);
        assert_eq!(pex.num_workers(), 2);
        for i in 0..10u64 {
            pex.ingest(s1, data(i)).unwrap();
            pex.ingest(s2, data(i)).unwrap();
            pex.ingest(s3, data(i)).unwrap();
        }
        pex.close_source(s1).unwrap();
        pex.close_source(s2).unwrap();
        pex.close_source(s3).unwrap();
        pex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(out1.0.lock().unwrap().len(), 10);
        assert_eq!(out2.0.lock().unwrap().len(), 20);
        let snap = pex.snapshot().unwrap();
        assert_eq!(snap.ingested_per_source, vec![10, 10, 10]);
        assert_eq!(snap.total_queued, 0);
        assert_eq!(snap.profile.len(), 4);
        assert_eq!(snap.profile[0].name, "σ");
        assert_eq!(snap.profile[2].name, "∪");
    }

    #[test]
    fn sources_route_by_component_and_workers_multiplex() {
        let (g, [s1, s2, s3], out1, out2) = build();
        // One worker hosting both components still works (multiplexed).
        let pex = ParallelExecutor::new(
            g,
            ParallelConfig::new(CostModel::free(), EtsPolicy::on_demand(), 1),
        );
        assert_eq!(pex.num_workers(), 1);
        assert_eq!(pex.component_of(s1), 0);
        assert_eq!(pex.component_of(s2), 1);
        for i in 0..5u64 {
            for s in [s1, s2, s3] {
                pex.ingest(s, data(i)).unwrap();
            }
        }
        for s in [s1, s2, s3] {
            pex.close_source(s).unwrap();
        }
        pex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(out1.0.lock().unwrap().len(), 5);
        assert_eq!(out2.0.lock().unwrap().len(), 10);
    }

    #[test]
    fn ingest_commands_coalesce_below_budget() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let f = b
            .operator(
                Box::new(Filter::new("σ", schema(), Expr::lit(true))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let out = Out::default();
        b.operator(
            Box::new(Sink::new("sink", schema(), out.clone())),
            vec![Input::Op(f)],
        )
        .unwrap();
        let pex = ParallelExecutor::new(
            b.build().unwrap(),
            ParallelConfig::new(CostModel::free(), EtsPolicy::on_demand(), 1),
        );
        for i in 0..1000u64 {
            pex.ingest(s1, data(i)).unwrap();
        }
        pex.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(out.0.lock().unwrap().len(), 1000);
        // 1000 tuples coalesce into ⌈1000/64⌉ = 16 batches + 1 run command.
        // The budget is a fixed regression bound: a per-tuple channel would
        // send 1001 commands here.
        let sent = pex.commands_sent();
        assert!(
            sent <= 24,
            "command round trips per 1k ingested tuples regressed: {sent} > 24"
        );
    }

    #[test]
    fn ingest_errors_surface_at_the_barrier() {
        let (g, [s1, _, _], _, _) = build();
        let pex = ParallelExecutor::new(
            g,
            ParallelConfig::new(CostModel::free(), EtsPolicy::on_demand(), 2),
        );
        pex.ingest(s1, data(100)).unwrap();
        // Out-of-order: fire-and-forget send succeeds, the barrier errors.
        pex.ingest(s1, data(5)).unwrap();
        let err = pex.barrier().unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
        // The error is consumed; the next barrier is clean.
        pex.barrier().unwrap();
    }

    /// An operator that panics the first time it executes — simulating an
    /// operator bug on a worker thread.
    struct PanickingOp {
        schema: Schema,
    }

    impl millstream_ops::Operator for PanickingOp {
        fn name(&self) -> &str {
            "panicker"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn output_schema(&self) -> &Schema {
            &self.schema
        }
        fn poll(&mut self, ctx: &millstream_ops::OpContext<'_>) -> millstream_ops::Poll {
            if ctx.input(0).is_empty() {
                millstream_ops::Poll::starved_on(0)
            } else {
                millstream_ops::Poll::Ready
            }
        }
        fn step(
            &mut self,
            _ctx: &millstream_ops::OpContext<'_>,
        ) -> Result<millstream_ops::StepOutcome> {
            panic!("injected operator failure");
        }
    }

    #[test]
    fn worker_panic_surfaces_at_the_barrier() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let p = b
            .operator(
                Box::new(PanickingOp { schema: schema() }),
                vec![Input::Source(s1)],
            )
            .unwrap();
        b.operator(
            Box::new(Sink::new("sink", schema(), Out::default())),
            vec![Input::Op(p)],
        )
        .unwrap();
        let pex = ParallelExecutor::new(
            b.build().unwrap(),
            ParallelConfig::new(CostModel::free(), EtsPolicy::on_demand(), 1),
        );
        pex.ingest(s1, data(1)).unwrap();
        let err = pex.run_until_quiescent(1_000).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("worker panicked"), "{msg}");
        assert!(msg.contains("injected operator failure"), "{msg}");
        // The worker thread survived the panic: the channel still answers.
        pex.barrier().unwrap();
        pex.snapshot().unwrap();
    }

    #[test]
    fn config_check_mode_reaches_component_executors() {
        use millstream_buffer::CheckMode;
        use millstream_ops::Reorder;
        use millstream_types::TimeDelta;

        let mut b = GraphBuilder::new();
        let s1 = b.unordered_source("S1", schema(), TimestampKind::External);
        let r = b
            .operator(
                Box::new(Reorder::new("↻", schema(), TimeDelta::from_micros(100))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        b.operator(
            Box::new(Sink::new("sink", schema(), Out::default())),
            vec![Input::Op(r)],
        )
        .unwrap();
        let pex = ParallelExecutor::new(
            b.build().unwrap(),
            ParallelConfig::new(CostModel::free(), EtsPolicy::None, 1)
                .with_check_mode(CheckMode::Strict),
        );
        pex.ingest_heartbeat(s1, Timestamp::from_micros(10))
            .unwrap();
        // Data below the asserted heartbeat on an Accept buffer: the strict
        // sentinel rejects it at the worker and the barrier reports it.
        pex.ingest(s1, data(5)).unwrap();
        let err = pex.barrier().unwrap_err();
        assert!(err.to_string().contains("punctuation-dominance"), "{err}");
    }
}
