//! The depth-first executor — the paper's §3 execution model with the §4
//! on-demand ETS extension wired into the backtrack rule.
//!
//! Execution is the two-step cycle of Fig. 3:
//!
//! 1. **Execution step** — run the current operator (one
//!    production/consumption step);
//! 2. **Continuation step** — pick the next operator with the
//!    *Next Operator Selection* (NOS) depth-first rules:
//!    * `Forward`: if `yield` (the output buffer holds tuples) then
//!      `next := succ`;
//!    * `Encore`: else if `more` then `next := self`;
//!    * `Backtrack`: else `next := pred_j` (the predecessor feeding the
//!      starving input `j`) and repeat NOS on it.
//!
//! When backtracking walks all the way to a **source node** whose buffer is
//! empty, the executor consults its [`EtsPolicy`]: under on-demand ETS it
//! generates a punctuation tuple right there and sends it "down along the
//! path on which backtracking just occurred" — the punctuation simply flows
//! through the normal forward execution that resumes at the source's
//! consumer. Each source generates at most one ETS per *activation* (the
//! span between quiescent states); the budget is re-armed by fresh
//! arrivals, which bounds on-demand punctuation traffic by the data rate —
//! the property that lets line C beat every periodic rate in Fig. 7.
//!
//! The executor runs **one operator step per [`Executor::step`] call** and
//! charges virtual CPU through its [`CostModel`], so a driver can interleave
//! event ingestion with execution at microsecond granularity.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use millstream_buffer::{punctuation_is_stale, Buffer, CheckMode, SentinelStats};
use millstream_metrics::IdleTracker;
use millstream_ops::{BatchOutcome, OpContext, Operator, Poll, StepOutcome};
use millstream_types::{Error, Result, Timestamp, Tuple};

use crate::clock::{CostModel, VirtualClock};
use crate::graph::{NodeId, OpNode, Pred, QueryGraph, SourceId, SourceState};
use crate::strategy::EtsPolicy;

/// What one executor step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Activity {
    /// An operator executed one step.
    Executed {
        /// The operator that ran.
        node: NodeId,
        /// Its step outcome.
        outcome: StepOutcome,
    },
    /// Backtracking reached a starved source and generated an on-demand
    /// ETS (§4/§5).
    EtsGenerated {
        /// The source that produced the ETS.
        source: SourceId,
        /// The enabling timestamp value.
        ts: Timestamp,
    },
    /// Nothing can run: every path is starved and no ETS can be generated.
    /// The driver should sleep until the next external event.
    Quiescent,
}

/// Operator-scheduling discipline.
///
/// The paper evaluates the **depth-first** strategy (§3.1), which forwards
/// freshly produced tuples toward the sink immediately ("to expedite tuple
/// progress toward output"). [`SchedPolicy::RoundRobin`] is an ablation
/// baseline: it cycles through runnable operators one step at a time, the
/// simplest fair scheduler — tuples progress level by level, so queues
/// between operators grow under load. Both disciplines share the same
/// backtrack-to-source ETS machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// The paper's depth-first NOS rules (Forward / Encore / Backtrack).
    #[default]
    DepthFirst,
    /// Cycle fairly over runnable operators, one step each.
    RoundRobin,
}

/// Per-operator execution profile (a lightweight built-in profiler).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator name.
    pub name: String,
    /// Steps executed.
    pub steps: u64,
    /// Tuples consumed.
    pub consumed: u64,
    /// Tuples produced.
    pub produced: u64,
    /// Virtual CPU time charged to this operator (microseconds).
    pub busy_micros: u64,
    /// Peak tuples retained in this operator's join/window state
    /// ([`millstream_ops::Operator::state_tuples`]), sampled after every
    /// charged batch. 0 for stateless operators.
    pub peak_state: u64,
    /// Columnar runs compacted by this operator's tiered join state
    /// ([`millstream_ops::Operator::spill_stats`]). 0 without tiering.
    pub compacted_runs: u64,
    /// Run payload bytes this operator spilled to disk.
    pub spilled_bytes: u64,
    /// Wholly-expired runs retired by header comparison (never scanned).
    pub run_drops: u64,
}

/// Aggregate executor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Operator steps executed.
    pub steps: u64,
    /// Scheduling decisions made (batches executed). Equals `steps` under
    /// per-tuple execution (`encore_batch == 1`); smaller when Encore runs
    /// fuse, and `steps / batches` is the realized batching factor.
    pub batches: u64,
    /// Backtrack hops performed.
    pub backtracks: u64,
    /// On-demand ETS generated.
    pub ets_generated: u64,
    /// Total work units (cost-model input) executed.
    pub work_units: u64,
    /// Heartbeats dropped at ingestion for being stale (at or below an
    /// already-asserted punctuation mark, or below the data high-water).
    pub dropped_stale_heartbeats: u64,
    /// Ordering-contract violations observed by the sentinel layer
    /// (`MILLSTREAM_CHECK=counters`; under `strict` the first violation
    /// that nothing else catches aborts execution instead). Sums buffer
    /// order regressions, punctuation-dominance, TSM-consistency and
    /// clock-monotonicity violations.
    pub invariant_violations: u64,
    /// Always 0: the executor never sheds. Still a field because
    /// `benchmark/` reads it.
    pub shed_tuples: u64,
    /// Largest per-operator join/window state (in tuples) observed at any
    /// single operator instance — the punctuation-purge boundedness signal
    /// (paper Fig. 8 methodology). Merged with `max`, not `+`: it is a
    /// high-water, not a counter.
    pub peak_join_state: u64,
    /// Columnar runs compacted across all tiered join states
    /// (`--join-spill-budget`; 0 with tiering off).
    pub compacted_runs: u64,
    /// Join-run payload bytes spilled to the disk tier.
    pub spilled_bytes: u64,
    /// Wholly-expired join runs retired at a floor advance by header
    /// comparison — the tiered store's O(1)-purge signal.
    pub run_drops: u64,
}

impl ExecStats {
    /// Accumulates another executor's counters into this one — the single
    /// definition of cross-component stats merging, so a counter added to
    /// `ExecStats` can never be silently dropped from a merged
    /// [`crate::ParallelSnapshot`].
    pub fn merge(&mut self, other: &ExecStats) {
        let ExecStats {
            steps,
            batches,
            backtracks,
            ets_generated,
            work_units,
            dropped_stale_heartbeats,
            invariant_violations,
            shed_tuples,
            peak_join_state,
            compacted_runs,
            spilled_bytes,
            run_drops,
        } = other;
        self.steps += steps;
        self.batches += batches;
        self.backtracks += backtracks;
        self.ets_generated += ets_generated;
        self.work_units += work_units;
        self.dropped_stale_heartbeats += dropped_stale_heartbeats;
        self.invariant_violations += invariant_violations;
        self.shed_tuples += shed_tuples;
        self.peak_join_state = self.peak_join_state.max(*peak_join_state);
        self.compacted_runs += compacted_runs;
        self.spilled_bytes += spilled_bytes;
        self.run_drops += run_drops;
    }
}

/// Execution tuning knobs, separate from the paper-level policies
/// ([`EtsPolicy`], [`SchedPolicy`]) because they must not change output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Maximum consecutive Encore steps of one operator fused into a
    /// single scheduling decision. `1` reproduces the paper's per-tuple
    /// execution exactly; larger values amortize NOS overhead over runs of
    /// silent steps (e.g. a filter draining a burst of non-matching
    /// tuples). Only batch-safe operators ([`millstream_ops::Operator::batch_safe`])
    /// and only the depth-first scheduler use the batched path; output is
    /// byte-identical either way.
    pub encore_batch: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { encore_batch: 1 }
    }
}

/// The depth-first NOS executor over one query graph.
pub struct Executor {
    graph: QueryGraph,
    clock: Arc<VirtualClock>,
    cost: CostModel,
    policy: EtsPolicy,
    sched: SchedPolicy,
    opts: ExecOptions,
    current: Option<NodeId>,
    /// Rotation cursor for round-robin scheduling.
    rr_cursor: usize,
    idle: HashMap<NodeId, IdleTracker>,
    stats: ExecStats,
    profile: Vec<OpProfile>,
    /// Runtime invariant checking (`MILLSTREAM_CHECK`, or programmatic via
    /// [`Executor::with_check_mode`]).
    check: CheckMode,
    sentinel_stats: Arc<SentinelStats>,
    /// Last clock reading observed by a step — the clock-monotonicity
    /// check's floor.
    last_clock: Timestamp,
    /// Optional ring buffer of recent activities (diagnostics).
    trace: Option<std::collections::VecDeque<(Timestamp, Activity)>>,
    trace_capacity: usize,
    /// Scratch storage reused across backtracks so the steady-state
    /// scheduling loop never allocates: the depth-first stack over
    /// predecessor chains.
    bt_stack: Vec<Pred>,
}

impl Executor {
    /// Creates an executor over `graph` driven by `clock`.
    pub fn new(
        graph: QueryGraph,
        clock: Arc<VirtualClock>,
        cost: CostModel,
        policy: EtsPolicy,
    ) -> Self {
        let mut graph = graph;
        let profile = graph
            .ops
            .iter()
            .map(|n| OpProfile {
                name: n.name.clone(),
                ..OpProfile::default()
            })
            .collect();
        let check = CheckMode::from_env();
        let sentinel_stats = SentinelStats::shared();
        if check.is_enabled() {
            graph.set_check_mode(check, &sentinel_stats);
        }
        let last_clock = clock.now();
        Executor {
            graph,
            clock,
            cost,
            policy,
            sched: SchedPolicy::DepthFirst,
            opts: ExecOptions::default(),
            current: None,
            rr_cursor: 0,
            idle: HashMap::new(),
            stats: ExecStats::default(),
            profile,
            check,
            sentinel_stats,
            last_clock,
            trace: None,
            trace_capacity: 0,
            bt_stack: Vec::new(),
        }
    }

    /// Overrides the runtime invariant-checking mode (builder style). The
    /// default comes from the `MILLSTREAM_CHECK` environment variable.
    pub fn with_check_mode(mut self, mode: CheckMode) -> Self {
        self.check = mode;
        self.graph.set_check_mode(mode, &self.sentinel_stats);
        self
    }

    /// The shared sentinel counters (all zero when checking is off).
    pub fn sentinel_stats(&self) -> &Arc<SentinelStats> {
        &self.sentinel_stats
    }

    /// Enables activity tracing: the last `capacity` scheduler activities
    /// are retained and can be rendered with [`Executor::render_trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(std::collections::VecDeque::with_capacity(capacity));
        self.trace_capacity = capacity.max(1);
    }

    /// The retained trace, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &(Timestamp, Activity)> {
        self.trace.iter().flatten()
    }

    /// Renders the retained trace as human-readable lines.
    pub fn render_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (at, activity) in self.trace() {
            let line = match activity {
                Activity::Executed { node, outcome } => format!(
                    "{at} exec {} (consumed {}, produced {})",
                    self.graph.op_name(*node),
                    outcome.consumed,
                    outcome.produced
                ),
                Activity::EtsGenerated { source, ts } => {
                    format!("{at} ETS on {} @ {ts}", self.graph.source(*source).name)
                }
                Activity::Quiescent => format!("{at} quiescent"),
            };
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Selects the operator-scheduling discipline (builder style).
    pub fn with_sched_policy(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }

    /// Sets the execution tuning knobs (builder style).
    pub fn with_exec_options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the Encore batch size (builder style); see
    /// [`ExecOptions::encore_batch`].
    pub fn with_encore_batch(mut self, encore_batch: usize) -> Self {
        self.opts.encore_batch = encore_batch.max(1);
        self
    }

    /// The execution tuning knobs in effect.
    pub fn options(&self) -> ExecOptions {
        self.opts
    }

    /// The underlying graph (read access).
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Executor statistics so far.
    pub fn stats(&self) -> ExecStats {
        let mut stats = self.stats;
        stats.invariant_violations = self.sentinel_stats.total();
        // Tier counters are lifetime totals held by the operators
        // themselves; the profile mirrors them (latest sample wins), so
        // summing the profile is summing the operators.
        for p in &self.profile {
            stats.compacted_runs += p.compacted_runs;
            stats.spilled_bytes += p.spilled_bytes;
            stats.run_drops += p.run_drops;
        }
        stats
    }

    /// Per-operator execution profile (steps, tuples, virtual busy time).
    pub fn profile(&self) -> &[OpProfile] {
        &self.profile
    }

    /// Records one executed batch (one or more steps) against the
    /// operator's profile.
    fn charge(&mut self, node: NodeId, batch: &BatchOutcome, cost: millstream_types::TimeDelta) {
        let op = &self.graph.ops[node.0].op;
        let state = op.state_tuples() as u64;
        let spill = op.spill_stats();
        let p = &mut self.profile[node.0];
        p.steps += batch.steps as u64;
        p.consumed += batch.consumed as u64;
        p.produced += batch.produced as u64;
        p.busy_micros += cost.as_micros();
        p.peak_state = p.peak_state.max(state);
        // Lifetime totals from the operator, not deltas: assign.
        p.compacted_runs = spill.compacted_runs;
        p.spilled_bytes = spill.spilled_bytes;
        p.run_drops = spill.run_drops;
        self.stats.peak_join_state = self.stats.peak_join_state.max(state);
    }

    /// Begins idle-waiting tracking for `node` (typically the IWP operator
    /// under study).
    pub fn monitor_idle(&mut self, node: NodeId) {
        self.idle.insert(node, IdleTracker::new(self.clock.now()));
    }

    /// The idle tracker for a monitored node.
    pub fn idle_tracker(&self, node: NodeId) -> Option<&IdleTracker> {
        self.idle.get(&node)
    }

    /// Finalizes all idle trackers at the current clock (end of run).
    pub fn finish_idle(&mut self) {
        let now = self.clock.now();
        for t in self.idle.values_mut() {
            t.finish(now);
        }
    }

    /// Declares end-of-stream on a source: no tuple will ever arrive there
    /// again. A punctuation at `Timestamp::MAX` is injected, which lets
    /// idle-waiting operators drain everything and windowed aggregates
    /// flush their final windows. Idempotent; later `ingest` calls on the
    /// source fail.
    pub fn close_source(&mut self, source: SourceId) -> Result<()> {
        let s = &mut self.graph.sources[source.0];
        if s.closed {
            return Ok(());
        }
        s.closed = true;
        self.graph.buffers[s.buffer.0]
            .borrow_mut()
            .push(Tuple::punctuation(Timestamp::MAX))?;
        self.refresh_idle();
        Ok(())
    }

    /// Ingests a data tuple at a source (the external wrapper's push). This
    /// re-arms every source's on-demand ETS budget: fresh data is a new
    /// activation. A tuple the source buffer refuses (out of order on a
    /// `Reject` buffer) leaves the source's bookkeeping untouched.
    pub fn ingest(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        let s = &self.graph.sources[source.0];
        admit(s, &tuple)?;
        let ts = tuple.ts;
        self.graph.buffers[s.buffer.0].borrow_mut().push(tuple)?;
        self.note_ingested(source, 1, ts);
        Ok(())
    }

    /// Ingests a run of data tuples at one source in a single call — the
    /// exchange-edge fast path (one command per drained shard queue, not
    /// per tuple). Leaves exactly the state calling [`Executor::ingest`]
    /// per tuple (stopping at the first error) leaves: the same error, the
    /// same queued prefix, the same per-source bookkeeping for the tuples
    /// the buffer accepted, the same budget re-arm. The buffer receives
    /// the run via its pooled [`Buffer::push_batch`] path.
    pub fn ingest_batch(&mut self, source: SourceId, mut tuples: Vec<Tuple>) -> Result<()> {
        let s = &self.graph.sources[source.0];
        let Some(first) = tuples.first() else {
            return Ok(());
        };
        admit(s, first)?;
        // A punctuation ends the run where `ingest` would refuse it.
        let data = tuples
            .iter()
            .position(Tuple::is_punctuation)
            .unwrap_or(tuples.len());
        // `push_batch` stops at the first tuple it refuses, which is then
        // the last one it pulled: the accepted prefix is everything before.
        let (mut pulled, mut max_ts, mut prefix_max_ts) = (0, None, None);
        let run = tuples.drain(..data).inspect(|t| {
            pulled += 1;
            prefix_max_ts = max_ts;
            max_ts = Some(max_ts.map_or(t.ts, |m: Timestamp| m.max(t.ts)));
        });
        let pushed = self.graph.buffers[s.buffer.0].borrow_mut().push_batch(run);
        let (accepted, max_ts, result) = match pushed {
            Ok(n) if tuples.is_empty() => (n, max_ts, Ok(())),
            Ok(n) => (n, max_ts, Err(not_data(s))),
            Err(e) => (pulled - 1, prefix_max_ts, Err(e)),
        };
        if let Some(ts) = max_ts {
            self.note_ingested(source, accepted as u64, ts);
        }
        result
    }

    /// Source bookkeeping for `count` data tuples, the highest stamped
    /// `max_ts`, that the source's buffer accepted: data high-water,
    /// arrival instant, lifetime count, and every source's re-armed ETS
    /// budget.
    fn note_ingested(&mut self, source: SourceId, count: u64, max_ts: Timestamp) {
        let s = &mut self.graph.sources[source.0];
        // Max, not last: unordered sources may push a regressed ts, and
        // the ETS floor must never move backwards.
        s.last_data_ts = Some(s.last_data_ts.map_or(max_ts, |p| p.max(max_ts)));
        s.last_data_arrival = Some(self.clock.now());
        s.ingested += count;
        for s in &mut self.graph.sources {
            s.ets_budget_used = false;
        }
        self.refresh_idle();
    }

    /// Ingests a heartbeat punctuation at a source — the periodic-ETS
    /// baseline of [Johnson et al., VLDB'05] (experiment line B). Stale
    /// heartbeats ([`punctuation_is_stale`]) are dropped at the door and
    /// counted in [`ExecStats::dropped_stale_heartbeats`] — a line-B run
    /// would otherwise push a redundant punctuation through the whole
    /// graph every period. Like [`Executor::ingest`], heartbeats on
    /// a closed source are a runtime error: end-of-stream already asserted
    /// `Timestamp::MAX`.
    pub fn ingest_heartbeat(&mut self, source: SourceId, ts: Timestamp) -> Result<()> {
        let s = &mut self.graph.sources[source.0];
        if s.closed {
            return Err(closed(s));
        }
        let buffer = &self.graph.buffers[s.buffer.0];
        let stale = {
            let b = buffer.borrow();
            punctuation_is_stale(ts, b.high_water(), b.punct_high_water())
        };
        if stale {
            self.stats.dropped_stale_heartbeats += 1;
            return Ok(());
        }
        buffer.borrow_mut().push(Tuple::punctuation(ts))?;
        // A heartbeat is an externally-supplied ETS: fold it into the
        // source's punctuation frontier so on-demand generation never
        // produces an ETS *below* it (the buffer would reject the
        // regressed punctuation as out-of-order).
        s.ets_high_water = Some(s.ets_high_water.map_or(ts, |hw| hw.max(ts)));
        self.refresh_idle();
        Ok(())
    }

    /// Re-evaluates the idle-waiting state of every monitored node at the
    /// current clock. Call after ingesting events or jumping the clock.
    pub fn refresh_idle(&mut self) {
        if self.idle.is_empty() {
            return;
        }
        let now = self.clock.now();
        let QueryGraph { ops, buffers, .. } = &mut self.graph;
        for (&node, tracker) in self.idle.iter_mut() {
            // Idle-waiting is counted while *data* tuples are blocked; a
            // trailing punctuation that cannot advance yet delays nothing.
            let pending = ops[node.0]
                .inputs
                .iter()
                .any(|b| buffers[b.0].borrow().data_len() > 0);
            let ready = poll_node(ops, buffers, node, now).is_ready();
            tracker.set_idle(now, pending && !ready);
        }
    }

    /// Executes one scheduling step. Returns what happened; on
    /// [`Activity::Quiescent`] the caller should deliver more input or
    /// advance time.
    pub fn step(&mut self) -> Result<Activity> {
        let activity = self.step_untraced()?;
        if let Some(trace) = &mut self.trace {
            // Suppress runs of quiescence: one entry carries the signal.
            let redundant = matches!(activity, Activity::Quiescent)
                && matches!(trace.back(), Some((_, Activity::Quiescent)));
            if !redundant {
                if trace.len() == self.trace_capacity {
                    trace.pop_front();
                }
                trace.push_back((self.clock.now(), activity.clone()));
            }
        }
        Ok(activity)
    }

    fn step_untraced(&mut self) -> Result<Activity> {
        self.check_clock()?;
        let now = self.clock.now();
        // Each decision's backtrack walk starts from an empty stack.
        self.bt_stack.clear();
        // The scheduling policy decides only *which node is next*.
        // Depth-first continues where the NOS rules left `current` (which
        // may have starved since) and, on (re)activation, enters at the
        // first runnable node; round-robin takes the first runnable node
        // from its rotation cursor.
        let start = match (self.sched, self.current) {
            (SchedPolicy::DepthFirst, Some(node)) => {
                let activity = match self.poll_run(node, now)? {
                    Some(activity) => activity,
                    None => self.backtrack(Some(node))?,
                };
                self.refresh_idle();
                return Ok(activity);
            }
            (SchedPolicy::DepthFirst, None) => 0,
            (SchedPolicy::RoundRobin, _) => self.rr_cursor,
        };
        let activity = match self.first_ready(start, now) {
            Some(node) => self.run(node)?,
            None => self.backtrack(None)?,
        };
        self.refresh_idle();
        Ok(activity)
    }

    /// How many consecutive Encore steps of `node` one decision may fuse.
    /// The batch stops at every per-tuple NOS boundary (yield,
    /// starvation), so `select_next` sees the same state it would after
    /// single-stepping — outputs are identical. Operators that read the
    /// clock are not batch-safe and run one step at a time, and
    /// round-robin stays strictly per-tuple: fusing Encore runs would
    /// starve the rotation's fairness.
    fn encore_limit(&self, node: NodeId) -> usize {
        if self.sched == SchedPolicy::DepthFirst && self.graph.ops[node.0].op.batch_safe() {
            self.opts.encore_batch.max(1)
        } else {
            1
        }
    }

    /// Fig. 3's execution step on a node already known to be runnable,
    /// followed by [`Executor::finish`].
    fn run(&mut self, node: NodeId) -> Result<Activity> {
        let now = self.clock.now();
        let max_steps = self.encore_limit(node);
        let QueryGraph { ops, buffers, .. } = &mut self.graph;
        let batch = exec_node(ops, buffers, node, now, max_steps)?;
        self.finish(node, batch)
    }

    /// Depth-first's one decision on `node`: poll its `more` condition and,
    /// when it holds, execute it inside the same operator context, then
    /// [`Executor::finish`]. The decision is the one `poll` followed by
    /// [`Executor::run`] would make, with one context build instead of
    /// two. A starved node runs nothing: the predecessors feeding its
    /// starving inputs go on the backtrack stack and `None` comes back.
    fn poll_run(&mut self, node: NodeId, now: Timestamp) -> Result<Option<Activity>> {
        let max_steps = self.encore_limit(node);
        let QueryGraph { ops, buffers, .. } = &mut self.graph;
        let batch = match poll_exec_node(ops, buffers, node, now, max_steps, &mut self.bt_stack) {
            Ok(Some(batch)) => batch,
            Ok(None) => return Ok(None),
            Err(e) => {
                // Only a step fails, so the node was runnable.
                self.current = Some(node);
                return Err(e);
            }
        };
        self.current = Some(node);
        self.finish(node, batch).map(Some)
    }

    /// The one place an executed batch is charged — clock, stats, profile,
    /// the TSM check — followed by the policy's continuation
    /// ([`Executor::select_next`]).
    fn finish(&mut self, node: NodeId, batch: BatchOutcome) -> Result<Activity> {
        let cost = self.cost.batch_cost(batch.steps, batch.total_work());
        self.clock.advance(cost);
        self.stats.steps += batch.steps as u64;
        self.stats.batches += 1;
        self.stats.work_units += batch.total_work() as u64;
        self.charge(node, &batch, cost);
        self.check_tsm(node)?;
        self.select_next(node);
        Ok(Activity::Executed {
            node,
            outcome: batch.as_step_outcome(),
        })
    }

    /// Clock-monotonicity check: the virtual clock must never run
    /// backwards between scheduling steps. Monotone by construction today
    /// (`advance` only adds, `advance_to` only raises), so this guards
    /// against future clock implementations or external tampering.
    fn check_clock(&mut self) -> Result<()> {
        if !self.check.is_enabled() {
            return Ok(());
        }
        let now = self.clock.now();
        if now < self.last_clock {
            self.sentinel_stats.record_clock_violation();
            if self.check == CheckMode::Strict {
                return Err(Error::invariant(
                    "clock-monotonicity",
                    "executor",
                    "",
                    now.as_micros(),
                    self.last_clock.as_micros(),
                ));
            }
        } else {
            self.last_clock = now;
        }
        Ok(())
    }

    /// TSM-register consistency: after an IWP operator runs, no output
    /// buffer's data high-water may exceed the operator's minimum TSM
    /// register — an output stamped beyond `min_tau` would claim order the
    /// registers cannot yet guarantee.
    fn check_tsm(&self, node: NodeId) -> Result<()> {
        if !self.check.is_enabled() {
            return Ok(());
        }
        let n = &self.graph.ops[node.0];
        let Some(tau) = n.op.tsm_min() else {
            return Ok(());
        };
        for b in &n.outputs {
            let violation = {
                let buf = self.graph.buffers[b.0].borrow();
                match buf.high_water() {
                    Some(hw) if hw > tau => Some((buf.name().to_string(), hw)),
                    _ => None,
                }
            };
            if let Some((buffer, hw)) = violation {
                self.sentinel_stats.record_tsm_violation();
                if self.check == CheckMode::Strict {
                    return Err(Error::invariant(
                        "tsm-consistency",
                        &n.name,
                        &buffer,
                        hw.as_micros(),
                        tau.as_micros(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Emits the on-demand ETS `ts` at source `sid`: bumps the source's
    /// counter and ETS high-water, pushes the punctuation into its buffer
    /// and charges the generation cost. Whether one may be generated (the
    /// policy's value, the per-epoch budget) is the caller's decision.
    #[inline]
    fn emit_ets(&mut self, sid: SourceId, ts: Timestamp) -> Result<()> {
        let source = &mut self.graph.sources[sid.0];
        source.ets_generated += 1;
        source.ets_high_water = Some(ts);
        self.graph.buffers[source.buffer.0]
            .borrow_mut()
            .push(Tuple::punctuation(ts))?;
        self.clock.advance(self.cost.ets_generation);
        self.stats.ets_generated += 1;
        Ok(())
    }

    /// Generates an on-demand ETS for every open, empty-buffer source
    /// whose policy can promise one at the current clock — the
    /// externally-requested analogue of a starvation backtrack reaching
    /// the source. A locally-quiescent executor never backtracks, so when
    /// the starving consumer lives *downstream of the sink* (the sharded
    /// exchange's merge stage), its coordinator uses this to complete the
    /// serial backtrack's final hop across the shard boundary. Applies the
    /// register discipline of the backtrack path — same
    /// [`EtsPolicy::ets_for`] staleness rules, same clock cost — but not
    /// the per-epoch ETS budget: that budget re-arms on ingest, and a
    /// shard the router stops feeding would otherwise lose the ability to
    /// promise forever. `ets_for`'s suppression of non-advancing values
    /// is what bounds repeat generation here (the clock must move for a
    /// second promise to exist). Returns how many promises were made.
    pub fn promise_frontiers(&mut self) -> Result<u64> {
        let mut generated = 0;
        for i in 0..self.graph.sources.len() {
            let now = self.clock.now();
            let buffer = self.graph.sources[i].buffer;
            if !self.graph.buffers[buffer.0].borrow().is_empty() {
                continue;
            }
            if let Some(ts) = self.policy.ets_for(&self.graph.sources[i], now) {
                self.emit_ets(SourceId(i), ts)?;
                generated += 1;
            }
        }
        Ok(generated)
    }

    /// Runs until quiescent or `max_steps` executor steps. Returns the
    /// number of steps taken. Mostly for tests and simple callers; real
    /// drivers interleave [`Executor::step`] with event delivery.
    pub fn run_until_quiescent(&mut self, max_steps: u64) -> Result<u64> {
        let mut taken = 0;
        while taken < max_steps {
            match self.step()? {
                Activity::Quiescent => break,
                _ => taken += 1,
            }
        }
        Ok(taken)
    }

    /// The continuation step (Fig. 3 step 2): where the policy goes after
    /// executing `node`. Round-robin moves its rotation cursor past it;
    /// depth-first applies the NOS rules.
    fn select_next(&mut self, node: NodeId) {
        if self.sched == SchedPolicy::RoundRobin {
            self.rr_cursor = (node.0 + 1) % self.graph.ops.len();
            return;
        }
        let n = &self.graph.ops[node.0];
        // Forward: if yield then next := succ — the consumer of the first
        // output port holding tuples. (The operator before a sink needs no
        // special case: the sink operator itself has no output, so
        // execution drains it via Encore exactly as the paper's special
        // rule prescribes. Multi-output operators forward to the first
        // non-empty port; the remaining ports drain via later scans.)
        let forward = n
            .outputs
            .iter()
            .position(|b| !self.graph.buffers[b.0].borrow().is_empty())
            .map(|port| n.succs[port]);
        // Encore (else if more then next := self) and Backtrack both stay
        // on this node: the next step polls it and either runs it again
        // or, finding it starved, walks its preds.
        self.current = Some(forward.unwrap_or(node));
    }

    /// The Backtrack rule (§3.2) with the §4 extension, for both policies:
    /// walk the predecessors of the starving inputs depth-first until a
    /// runnable operator is found or an empty source generates an ETS.
    /// The walk starts at `origin` (depth-first's starved `current`, whose
    /// poll already stacked its starving predecessors) and, when every
    /// path from there is dead, hands over to each other starved operator
    /// with queued input in id order — another part of the graph may
    /// still hold work or ETS budget (multi-sink graphs).
    ///
    /// The policy enters as one datum: depth-first *resumes* a runnable
    /// operator the walk comes across; round-robin leaves it for the
    /// rotation and only looks for an ETS.
    fn backtrack(&mut self, origin: Option<NodeId>) -> Result<Activity> {
        let resume = self.sched == SchedPolicy::DepthFirst;
        let mut scan = 0;
        let mut walk = origin.is_some() || self.stack_next_starved(&mut scan, origin);
        while walk {
            // The graph is a DAG with single-consumer buffers, so each pred
            // is visited at most once per walk; no visited-set needed.
            while let Some(pred) = self.bt_stack.pop() {
                self.stats.backtracks += 1;
                self.clock.advance(self.cost.backtrack);
                let now = self.clock.now();
                match pred {
                    Pred::Op(p) if resume => {
                        if let Some(activity) = self.poll_run(p, now)? {
                            return Ok(activity);
                        }
                    }
                    Pred::Op(p) => {
                        if let Poll::Starved { starving } = self.poll(p, now) {
                            stack_preds(&mut self.bt_stack, &self.graph.ops[p.0], &starving);
                        }
                    }
                    Pred::Source(sid) => {
                        let consumer = self.graph.sources[sid.0].consumer;
                        let buffer = self.graph.sources[sid.0].buffer;
                        // A non-empty source buffer can only be reached
                        // here when the consumer is the starved operator
                        // itself (e.g. a union wired straight to sources);
                        // resume it only if it is actually runnable.
                        if !self.graph.buffers[buffer.0].borrow().is_empty() {
                            if resume && self.poll(consumer, now).is_ready() {
                                return self.resume(consumer);
                            }
                            continue;
                        }
                        // Empty input buffer at a source: the §4 moment —
                        // generate an ETS on demand and send it down this
                        // path. No ETS possible here: fall through to the
                        // other starving paths on the stack.
                        let source = &mut self.graph.sources[sid.0];
                        if !source.ets_budget_used {
                            if let Some(ts) = self.policy.ets_for(source, now) {
                                source.ets_budget_used = true;
                                self.emit_ets(sid, ts)?;
                                self.current = Some(consumer);
                                return Ok(Activity::EtsGenerated { source: sid, ts });
                            }
                        }
                    }
                }
            }
            // Every starving path walked so far is dead. Depth-first has
            // only looked along `current`'s chain: input may have arrived
            // elsewhere in the graph, so try any runnable node first.
            if resume {
                if let Some(next) = self.first_ready(0, self.clock.now()) {
                    return self.resume(next);
                }
            }
            walk = self.stack_next_starved(&mut scan, origin);
        }
        self.current = None;
        Ok(Activity::Quiescent)
    }

    /// Backtracking landed on a runnable node: execute it right away (the
    /// paper repeats the NOS step on the predecessor, which then runs).
    fn resume(&mut self, node: NodeId) -> Result<Activity> {
        self.current = Some(node);
        self.run(node)
    }

    /// Stacks the starving predecessors of the next hand-over point of a
    /// dead backtrack: the first node at or after `*scan` (other than
    /// `origin`, already walked) that holds queued input yet is starved —
    /// e.g. an IWP operator wired directly to its sources. Walks only
    /// poll, so one ascending pass sees every candidate exactly once.
    /// Returns whether there was one.
    fn stack_next_starved(&mut self, scan: &mut usize, origin: Option<NodeId>) -> bool {
        let now = self.clock.now();
        let QueryGraph { ops, buffers, .. } = &mut self.graph;
        while *scan < ops.len() {
            let node = NodeId(*scan);
            *scan += 1;
            let pending = ops[node.0]
                .inputs
                .iter()
                .any(|b| !buffers[b.0].borrow().is_empty());
            if pending && Some(node) != origin {
                if let Poll::Starved { starving } = poll_node(ops, buffers, node, now) {
                    stack_preds(&mut self.bt_stack, &ops[node.0], &starving);
                    return true;
                }
            }
        }
        false
    }

    /// The first runnable operator (its `more` condition holds) in id
    /// order from `start`, wrapping around.
    fn first_ready(&mut self, start: usize, now: Timestamp) -> Option<NodeId> {
        let QueryGraph { ops, buffers, .. } = &mut self.graph;
        let n = ops.len();
        (0..n)
            .map(|k| NodeId((start + k) % n))
            .find(|&node| poll_node(ops, buffers, node, now).is_ready())
    }

    /// Polls `node`'s `more` condition.
    fn poll(&mut self, node: NodeId, now: Timestamp) -> Poll {
        let QueryGraph { ops, buffers, .. } = &mut self.graph;
        poll_node(ops, buffers, node, now)
    }
}

/// Whether `tuple` may be ingested at source `s` at all: it must be data,
/// and the source open. A punctuation tuple slipping through would bypass
/// the heartbeat high-water accounting and corrupt ETS state (the source's
/// data high-water would absorb a punctuation timestamp), so it is refused
/// structurally rather than only in debug builds.
fn admit(s: &SourceState, tuple: &Tuple) -> Result<()> {
    if tuple.is_punctuation() {
        return Err(not_data(s));
    }
    if s.closed {
        return Err(closed(s));
    }
    Ok(())
}

/// The error for ingesting at a source after end-of-stream.
fn closed(s: &SourceState) -> Error {
    Error::runtime(format!("source `{}` is closed", s.name))
}

/// The error for a punctuation handed to a data-ingest call.
fn not_data(s: &SourceState) -> Error {
    Error::runtime(format!(
        "ingest on source `{}` requires a data tuple; \
         use ingest_heartbeat for punctuation",
        s.name
    ))
}

/// Per-side port count up to which scratch contexts marshal buffer
/// references on the stack. Wider nodes (rare — a fan-in/fan-out beyond 8)
/// fall back to a heap `Vec`.
const MAX_INLINE_PORTS: usize = 8;

/// Builds the scratch [`OpContext`] for `node` and hands it, together with
/// the node (its operator and predecessors), to `f`. Every scheduling
/// decision (poll, step, batch) funnels through here, so the marshalling
/// must not allocate: buffer references land in stack arrays for the
/// common port counts.
fn with_node_ctx<R>(
    ops: &mut [OpNode],
    buffers: &[RefCell<Buffer>],
    node: NodeId,
    now: Timestamp,
    f: impl FnOnce(&mut OpNode, &OpContext<'_>) -> R,
) -> R {
    let n = &mut ops[node.0];
    let Some(filler) = buffers.first() else {
        // No buffers means the node has no ports at all.
        let ctx = OpContext::new(&[], &[], now);
        return f(n, &ctx);
    };
    // Unused slots keep the filler reference and are never read: the
    // context only sees the `..len` prefix of each array.
    let mut in_arr = [filler; MAX_INLINE_PORTS];
    let mut out_arr = [filler; MAX_INLINE_PORTS];
    let in_heap: Vec<&RefCell<Buffer>>;
    let out_heap: Vec<&RefCell<Buffer>>;
    let inputs: &[&RefCell<Buffer>] = if n.inputs.len() <= MAX_INLINE_PORTS {
        for (slot, b) in in_arr.iter_mut().zip(&n.inputs) {
            *slot = &buffers[b.0];
        }
        &in_arr[..n.inputs.len()]
    } else {
        in_heap = n.inputs.iter().map(|b| &buffers[b.0]).collect();
        &in_heap
    };
    let outputs: &[&RefCell<Buffer>] = if n.outputs.len() <= MAX_INLINE_PORTS {
        for (slot, b) in out_arr.iter_mut().zip(&n.outputs) {
            *slot = &buffers[b.0];
        }
        &out_arr[..n.outputs.len()]
    } else {
        out_heap = n.outputs.iter().map(|b| &buffers[b.0]).collect();
        &out_heap
    };
    let ctx = OpContext::new(inputs, outputs, now);
    f(n, &ctx)
}

/// Polls a node's `more` condition with a scratch context.
fn poll_node(
    ops: &mut [OpNode],
    buffers: &[RefCell<Buffer>],
    node: NodeId,
    now: Timestamp,
) -> Poll {
    with_node_ctx(ops, buffers, node, now, |n, ctx| n.op.poll(ctx))
}

/// Executes up to `max_steps` fused Encore steps of a node; `1` is the
/// plain per-tuple step.
fn exec_node(
    ops: &mut [OpNode],
    buffers: &[RefCell<Buffer>],
    node: NodeId,
    now: Timestamp,
    max_steps: usize,
) -> Result<BatchOutcome> {
    with_node_ctx(ops, buffers, node, now, |n, ctx| {
        step_op(n.op.as_mut(), ctx, max_steps)
    })
}

/// Polls a node's `more` condition and, when it holds, executes up to
/// `max_steps` fused Encore steps — poll and execution share one scratch
/// context. A starved node runs nothing: the predecessors feeding its
/// starving inputs go on `stack` and `None` comes back.
fn poll_exec_node(
    ops: &mut [OpNode],
    buffers: &[RefCell<Buffer>],
    node: NodeId,
    now: Timestamp,
    max_steps: usize,
    stack: &mut Vec<Pred>,
) -> Result<Option<BatchOutcome>> {
    with_node_ctx(ops, buffers, node, now, |n, ctx| match n.op.poll(ctx) {
        Poll::Ready => step_op(n.op.as_mut(), ctx, max_steps).map(Some),
        Poll::Starved { ref starving } => {
            stack_preds(stack, n, starving);
            Ok(None)
        }
    })
}

/// Stacks the predecessors feeding `node`'s starving inputs for the
/// backtrack walk, first starving input on top.
fn stack_preds(stack: &mut Vec<Pred>, node: &OpNode, starving: &[usize]) {
    stack.extend(starving.iter().rev().map(|&j| node.preds[j]));
}

/// Runs up to `max_steps` steps of an operator. Per-tuple execution
/// (`max_steps == 1`) stays the plain `step`, not a batch of one.
fn step_op(op: &mut dyn Operator, ctx: &OpContext<'_>, max_steps: usize) -> Result<BatchOutcome> {
    if max_steps > 1 {
        return op.step_batch(ctx, max_steps);
    }
    let mut one = BatchOutcome::default();
    one.record(op.step(ctx)?);
    Ok(one)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Input};
    use millstream_ops::{Filter, Sink, SinkCollector, Union, VecCollector};
    use millstream_types::{DataType, Expr, Field, Schema, TimeDelta, TimestampKind, Value};

    /// Shared collector so tests can inspect deliveries after the graph
    /// takes ownership of the sink.
    #[derive(Clone, Default)]
    struct Shared(Arc<std::sync::Mutex<VecCollector>>);

    impl SinkCollector for Shared {
        fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
            self.0.lock().unwrap().deliver(tuple, now);
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", DataType::Int)])
    }

    struct Fig4 {
        exec: Executor,
        s1: SourceId,
        s2: SourceId,
        union: NodeId,
        out: Shared,
    }

    /// Builds the paper's Fig. 4 graph: S1 → σ1 ↘
    ///                                            ∪ → sink
    ///                                  S2 → σ2 ↗
    fn fig4(policy: EtsPolicy, latent: bool) -> Fig4 {
        let mut b = GraphBuilder::new();
        let s1 = b.source(
            "S1",
            schema(),
            if latent {
                TimestampKind::Latent
            } else {
                TimestampKind::Internal
            },
        );
        let s2 = b.source(
            "S2",
            schema(),
            if latent {
                TimestampKind::Latent
            } else {
                TimestampKind::Internal
            },
        );
        let pass = Expr::col(0).ge(Expr::lit(0)); // everything passes
        let f1 = b
            .operator(
                Box::new(Filter::new("σ1", schema(), pass.clone())),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let f2 = b
            .operator(
                Box::new(Filter::new("σ2", schema(), pass)),
                vec![Input::Source(s2)],
            )
            .unwrap();
        let union_op = if latent {
            Union::latent("∪", schema(), 2)
        } else {
            Union::new("∪", schema(), 2)
        };
        let u = b
            .operator(Box::new(union_op), vec![Input::Op(f1), Input::Op(f2)])
            .unwrap();
        let out = Shared::default();
        let _k = b
            .operator(
                Box::new(Sink::new("sink", schema(), out.clone())),
                vec![Input::Op(u)],
            )
            .unwrap();
        let graph = b.build().unwrap();
        let clock = VirtualClock::shared();
        let mut exec = Executor::new(graph, clock, CostModel::default(), policy);
        exec.monitor_idle(u);
        Fig4 {
            exec,
            s1,
            s2,
            union: u,
            out,
        }
    }

    fn data(ts: u64, v: i64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(v)])
    }

    /// Applies a by-value transform to a field in place. The closure must
    /// not panic (it only sets a flag here).
    fn take_mut<T>(slot: &mut T, f: impl FnOnce(T) -> T) {
        unsafe {
            let old = std::ptr::read(slot);
            let new = f(old);
            std::ptr::write(slot, new);
        }
    }

    #[test]
    fn no_ets_idle_waits_on_sparse_input() {
        let mut f = fig4(EtsPolicy::None, false);
        f.exec.clock().advance_to(Timestamp::from_micros(100));
        f.exec.ingest(f.s1, data(100, 1)).unwrap();
        f.exec.run_until_quiescent(100).unwrap();
        // The tuple crossed σ1 but is stuck at the union: S2 never spoke.
        assert_eq!(f.out.0.lock().unwrap().delivered.len(), 0);
        assert!(f.exec.graph().total_queued() >= 1);
        // Union is idle-waiting.
        f.exec.clock().advance_to(Timestamp::from_secs(10));
        f.exec.refresh_idle();
        let frac = f
            .exec
            .idle_tracker(f.union)
            .unwrap()
            .idle_fraction(f.exec.clock().now());
        assert!(frac > 0.9, "idle fraction {frac}");
    }

    #[test]
    fn on_demand_ets_unblocks_immediately() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        f.exec.clock().advance_to(Timestamp::from_micros(100));
        f.exec.ingest(f.s1, data(100, 1)).unwrap();
        let mut ets_sources = vec![];
        loop {
            match f.exec.step().unwrap() {
                Activity::Quiescent => break,
                Activity::EtsGenerated { source, .. } => ets_sources.push(source),
                Activity::Executed { .. } => {}
            }
        }
        // The unblocking ETS targets the silent source; a follow-up ETS on
        // S1 may then flush the residual punctuation at the union.
        assert_eq!(ets_sources.first(), Some(&f.s2));
        assert_eq!(
            f.out.0.lock().unwrap().delivered.len(),
            1,
            "tuple delivered"
        );
        // Latency is microseconds (processing only), not idle-waiting.
        let (t, at) = f.out.0.lock().unwrap().delivered[0].clone();
        let latency = at.duration_since(t.entry);
        assert!(
            latency < TimeDelta::from_millis(1),
            "latency {latency} should be service-time only"
        );
        // No data tuple remains queued; at most a trailing punctuation can
        // linger at the union (its peer register has not reached it yet).
        assert_eq!(f.exec.graph().tracker().data_total(), 0);
    }

    #[test]
    fn ets_budget_bounds_punctuation() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        f.exec.clock().advance_to(Timestamp::from_micros(50));
        f.exec.ingest(f.s1, data(50, 1)).unwrap();
        f.exec.run_until_quiescent(1_000).unwrap();
        let after_first = f.exec.stats().ets_generated;
        assert!(after_first >= 1);
        // Quiescent now; stepping more must not spin out new ETS.
        for _ in 0..10 {
            assert_eq!(f.exec.step().unwrap(), Activity::Quiescent);
        }
        assert_eq!(f.exec.stats().ets_generated, after_first);
        // A fresh arrival re-arms the budget.
        f.exec.clock().advance_to(Timestamp::from_micros(500));
        f.exec.ingest(f.s1, data(500, 2)).unwrap();
        f.exec.run_until_quiescent(1_000).unwrap();
        assert!(f.exec.stats().ets_generated > after_first);
    }

    #[test]
    fn latent_streams_never_wait() {
        let mut f = fig4(EtsPolicy::None, true);
        f.exec.clock().advance_to(Timestamp::from_micros(100));
        f.exec.ingest(f.s1, data(100, 1)).unwrap();
        f.exec.run_until_quiescent(100).unwrap();
        assert_eq!(f.out.0.lock().unwrap().delivered.len(), 1);
        assert_eq!(f.exec.stats().ets_generated, 0);
    }

    #[test]
    fn heartbeats_unblock_line_b() {
        let mut f = fig4(EtsPolicy::None, false);
        f.exec.clock().advance_to(Timestamp::from_micros(100));
        f.exec.ingest(f.s1, data(100, 1)).unwrap();
        f.exec.run_until_quiescent(100).unwrap();
        assert_eq!(f.out.0.lock().unwrap().delivered.len(), 0);
        // Periodic heartbeat on the sparse stream at ts 200.
        f.exec.clock().advance_to(Timestamp::from_micros(200));
        f.exec
            .ingest_heartbeat(f.s2, Timestamp::from_micros(200))
            .unwrap();
        f.exec.run_until_quiescent(100).unwrap();
        assert_eq!(f.out.0.lock().unwrap().delivered.len(), 1);
    }

    #[test]
    fn merged_output_is_ordered_under_interleaving() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        // Interleaved arrivals on both streams.
        let mut arrivals: Vec<(SourceId, u64)> = vec![];
        for i in 0..50u64 {
            arrivals.push((f.s1, 100 + i * 20));
            if i % 10 == 0 {
                arrivals.push((f.s2, 105 + i * 20));
            }
        }
        arrivals.sort_by_key(|&(_, t)| t);
        for (src, t) in arrivals {
            f.exec.clock().advance_to(Timestamp::from_micros(t));
            // Internal timestamps are assigned on DSMS entry from the
            // system clock, which may have run past the arrival instant
            // while the CPU was busy.
            let stamp = f.exec.clock().now().max(Timestamp::from_micros(t));
            f.exec
                .ingest(src, data(stamp.as_micros(), t as i64))
                .unwrap();
            f.exec.run_until_quiescent(10_000).unwrap();
        }
        let delivered = f.out.0.lock().unwrap().delivered.clone();
        assert_eq!(delivered.len(), 55);
        let ts: Vec<u64> = delivered.iter().map(|(t, _)| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted, "sink receives a timestamp-ordered stream");
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        f.exec.clock().advance_to(Timestamp::from_micros(10));
        f.exec.ingest(f.s1, data(10, 1)).unwrap();
        f.exec.run_until_quiescent(1_000).unwrap();
        let st = f.exec.stats();
        assert!(st.steps > 0);
        assert!(st.backtracks > 0);
        assert!(st.work_units > 0);

        // The built-in profiler attributes steps and virtual time per op.
        let profile = f.exec.profile();
        assert_eq!(profile.len(), 4);
        let total_steps: u64 = profile.iter().map(|p| p.steps).sum();
        assert_eq!(total_steps, st.steps);
        let sigma1 = profile.iter().find(|p| p.name == "σ1").unwrap();
        assert!(sigma1.consumed >= 1, "σ1 consumed the ingested tuple");
        assert!(sigma1.busy_micros > 0);
        let sink = profile.iter().find(|p| p.name == "sink").unwrap();
        assert!(sink.consumed >= 1);
        assert_eq!(sink.produced, 0, "sinks never produce");
    }

    #[test]
    fn round_robin_delivers_with_on_demand_ets() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        let mut rr = fig4(EtsPolicy::on_demand(), false);
        // Rebuild the executor with round-robin scheduling.
        take_mut(&mut rr.exec, |e| {
            e.with_sched_policy(SchedPolicy::RoundRobin)
        });

        for rig in [&mut f, &mut rr] {
            rig.exec.clock().advance_to(Timestamp::from_micros(100));
            rig.exec.ingest(rig.s1, data(100, 1)).unwrap();
            rig.exec.run_until_quiescent(10_000).unwrap();
        }
        assert_eq!(f.out.0.lock().unwrap().delivered.len(), 1, "DFS delivers");
        assert_eq!(
            rr.out.0.lock().unwrap().delivered.len(),
            1,
            "round-robin delivers"
        );
        assert!(rr.exec.stats().ets_generated >= 1);
    }

    #[test]
    fn trace_records_recent_activities() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        f.exec.enable_trace(16);
        f.exec.clock().advance_to(Timestamp::from_micros(10));
        f.exec.ingest(f.s1, data(10, 1)).unwrap();
        f.exec.run_until_quiescent(1_000).unwrap();
        let rendered = f.exec.render_trace();
        assert!(rendered.contains("exec σ1"), "{rendered}");
        assert!(rendered.contains("ETS on S2"), "{rendered}");
        assert!(rendered.contains("exec sink"), "{rendered}");
        // Quiescent runs are collapsed and the buffer is bounded.
        assert!(f.exec.trace().count() <= 16);
        let quiescents = f
            .exec
            .trace()
            .filter(|(_, a)| matches!(a, Activity::Quiescent))
            .count();
        assert!(quiescents <= 1, "runs of quiescence collapse");
    }

    #[test]
    fn close_source_drains_everything() {
        let mut f = fig4(EtsPolicy::None, false);
        // Without ETS, data is stuck at the union…
        f.exec.clock().advance_to(Timestamp::from_micros(100));
        for i in 0..5u64 {
            f.exec.ingest(f.s1, data(100 + i, (i as i64) + 1)).unwrap();
        }
        f.exec.run_until_quiescent(10_000).unwrap();
        assert_eq!(f.out.0.lock().unwrap().delivered.len(), 0);
        // …until both sources declare end-of-stream.
        f.exec.close_source(f.s1).unwrap();
        f.exec.close_source(f.s2).unwrap();
        f.exec.run_until_quiescent(10_000).unwrap();
        assert_eq!(
            f.out.0.lock().unwrap().delivered.len(),
            5,
            "EOS flushes the union"
        );
        assert_eq!(f.exec.graph().total_queued(), 0, "nothing left anywhere");
        // Idempotent close; rejected ingest.
        f.exec.close_source(f.s1).unwrap();
        assert!(f.exec.ingest(f.s1, data(999, 9)).is_err());
    }

    #[test]
    fn clock_advances_with_work() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        f.exec.clock().advance_to(Timestamp::from_micros(10));
        let before = f.exec.clock().now();
        f.exec.ingest(f.s1, data(10, 1)).unwrap();
        f.exec.run_until_quiescent(1_000).unwrap();
        assert!(f.exec.clock().now() > before, "cost model charges time");
    }

    #[test]
    fn heartbeat_on_closed_source_errors_like_ingest() {
        let mut f = fig4(EtsPolicy::None, false);
        f.exec.close_source(f.s2).unwrap();
        let err = f
            .exec
            .ingest_heartbeat(f.s2, Timestamp::from_micros(100))
            .unwrap_err();
        assert!(err.to_string().contains("closed"), "{err}");
        // Identical contract to ingest on a closed source.
        let ingest_err = f.exec.ingest(f.s2, data(100, 1)).unwrap_err();
        assert_eq!(err.to_string(), ingest_err.to_string());
    }

    #[test]
    fn duplicate_heartbeats_are_dropped_and_counted() {
        let mut f = fig4(EtsPolicy::None, false);
        let hb = Timestamp::from_micros(200);
        f.exec.ingest_heartbeat(f.s2, hb).unwrap();
        let queued = f.exec.graph().total_queued();
        // The same heartbeat again adds no information
        // (`punctuation_is_stale`): dropped at the door, not pushed
        // through the graph.
        f.exec.ingest_heartbeat(f.s2, hb).unwrap();
        assert_eq!(f.exec.graph().total_queued(), queued);
        assert_eq!(f.exec.stats().dropped_stale_heartbeats, 1);
        // A regressed heartbeat is dropped too.
        f.exec
            .ingest_heartbeat(f.s2, Timestamp::from_micros(150))
            .unwrap();
        assert_eq!(f.exec.stats().dropped_stale_heartbeats, 2);
        // A fresh heartbeat past the mark is admitted.
        f.exec
            .ingest_heartbeat(f.s2, Timestamp::from_micros(300))
            .unwrap();
        assert_eq!(f.exec.graph().total_queued(), queued + 1);
        assert_eq!(f.exec.stats().dropped_stale_heartbeats, 2);
    }

    #[test]
    fn heartbeat_at_data_high_water_is_still_admitted() {
        let mut f = fig4(EtsPolicy::None, false);
        f.exec.clock().advance_to(Timestamp::from_micros(100));
        f.exec.ingest(f.s2, data(100, 1)).unwrap();
        let queued = f.exec.graph().total_queued();
        // ts == data high-water: asserts silence up to 100 — informative
        // (the asymmetry documented at `punctuation_is_stale`).
        f.exec
            .ingest_heartbeat(f.s2, Timestamp::from_micros(100))
            .unwrap();
        assert_eq!(f.exec.graph().total_queued(), queued + 1);
        assert_eq!(f.exec.stats().dropped_stale_heartbeats, 0);
    }

    #[test]
    fn batched_execution_matches_per_tuple_output() {
        // Selective filters so Encore drop-runs actually fuse: only every
        // fourth value passes.
        fn selective(policy: EtsPolicy, k: usize) -> Fig4 {
            let mut f = fig4(policy, false);
            take_mut(&mut f.exec, |e| e.with_encore_batch(k));
            f
        }
        for policy in [EtsPolicy::None, EtsPolicy::on_demand()] {
            let mut base = selective(policy, 1);
            let mut batched = selective(policy, 64);
            for rig in [&mut base, &mut batched] {
                rig.exec.clock().advance_to(Timestamp::from_micros(100));
                for i in 0..40u64 {
                    rig.exec.ingest(rig.s1, data(100 + i, i as i64)).unwrap();
                    if i % 8 == 0 {
                        rig.exec.ingest(rig.s2, data(100 + i, -(i as i64))).unwrap();
                    }
                }
                rig.exec.run_until_quiescent(100_000).unwrap();
                rig.exec.close_source(rig.s1).unwrap();
                rig.exec.close_source(rig.s2).unwrap();
                rig.exec.run_until_quiescent(100_000).unwrap();
            }
            let base_out = base.out.0.lock().unwrap().delivered.clone();
            let batched_out = batched.out.0.lock().unwrap().delivered.clone();
            assert_eq!(base_out, batched_out, "byte-identical deliveries");
            let (bs, ks) = (base.exec.stats(), batched.exec.stats());
            assert_eq!(bs.steps, ks.steps, "same inner step count");
            assert_eq!(bs.ets_generated, ks.ets_generated);
            assert_eq!(bs.work_units, ks.work_units);
            assert_eq!(bs.batches, bs.steps, "K = 1: one step per decision");
            assert!(ks.batches <= ks.steps);
            assert_eq!(
                base.exec.clock().now(),
                batched.exec.clock().now(),
                "batch cost charging is sum-exact"
            );
        }
    }

    #[test]
    fn exec_options_default_and_builder() {
        let f = fig4(EtsPolicy::None, false);
        assert_eq!(f.exec.options(), ExecOptions::default());
        assert_eq!(f.exec.options().encore_batch, 1);
        let mut f = fig4(EtsPolicy::None, false);
        take_mut(&mut f.exec, |e| e.with_encore_batch(0));
        assert_eq!(f.exec.options().encore_batch, 1, "clamped to 1");
        let mut f = fig4(EtsPolicy::None, false);
        take_mut(&mut f.exec, |e| {
            e.with_exec_options(ExecOptions { encore_batch: 8 })
        });
        assert_eq!(f.exec.options().encore_batch, 8);
    }

    /// Regression (found by `msq fuzz`, seed 5): a heartbeat must advance
    /// the source's ETS frontier. Without that, backtracking at a clock
    /// instant *below* an asserted heartbeat generates an on-demand ETS
    /// that regresses behind the heartbeat's punctuation and is rejected
    /// by the source buffer as out-of-order.
    #[test]
    fn heartbeat_advances_the_ets_frontier() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        f.exec.clock().advance_to(Timestamp::from_micros(5));
        f.exec.ingest(f.s1, data(5, 1)).unwrap();
        f.exec.ingest(f.s2, data(5, 2)).unwrap();
        f.exec
            .ingest_heartbeat(f.s1, Timestamp::from_micros(20))
            .unwrap();
        f.exec
            .ingest_heartbeat(f.s2, Timestamp::from_micros(30))
            .unwrap();
        f.exec.clock().advance_to(Timestamp::from_micros(12));
        // The union drains both buffers; S1's register parks at 20 with an
        // empty buffer, so backtracking reaches S1 while the clock is
        // still below 20 — the generated ETS must not regress behind the
        // heartbeat.
        f.exec
            .run_until_quiescent(10_000)
            .expect("no regressed ETS punctuation");
    }

    /// Regression: in release builds the old `debug_assert!` let a
    /// punctuation tuple through `ingest`, where it was absorbed into the
    /// source's *data* high-water accounting and corrupted ETS state. The
    /// misuse must be a structured error on every build profile.
    #[test]
    fn ingest_rejects_punctuation_tuples() {
        let mut f = fig4(EtsPolicy::on_demand(), false);
        let err = f
            .exec
            .ingest(f.s1, Tuple::punctuation(Timestamp::from_micros(10)))
            .unwrap_err();
        assert!(matches!(err, Error::Runtime(_)), "{err:?}");
        assert!(err.to_string().contains("ingest_heartbeat"), "{err}");
        // The rejected punctuation left no trace: data ingest continues
        // from a clean slate and the heartbeat path still works.
        let s = f.exec.graph().source(f.s1);
        assert_eq!(s.ingested, 0);
        assert_eq!(s.last_data_ts, None);
        f.exec.ingest(f.s1, data(5, 1)).unwrap();
        f.exec
            .ingest_heartbeat(f.s1, Timestamp::from_micros(20))
            .unwrap();
        f.exec.run_until_quiescent(10_000).unwrap();
    }

    /// Fig. 4 over two externally timestamped sources on `Reject` buffers,
    /// under on-demand ETS: the skew-bound rule reads each source's data
    /// baseline, so source bookkeeping is observable in the output.
    fn external_fig4() -> (Executor, [SourceId; 2], Shared) {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::External);
        let s2 = b.source("S2", schema(), TimestampKind::External);
        let u = b
            .operator(
                Box::new(Union::new("∪", schema(), 2)),
                vec![Input::Source(s1), Input::Source(s2)],
            )
            .unwrap();
        let out = Shared::default();
        b.operator(
            Box::new(Sink::new("sink", schema(), out.clone())),
            vec![Input::Op(u)],
        )
        .unwrap();
        let exec = Executor::new(
            b.build().unwrap(),
            VirtualClock::shared(),
            CostModel::default(),
            EtsPolicy::on_demand(),
        );
        (exec, [s1, s2], out)
    }

    /// Everything ingestion may change, per source, plus the queues.
    #[allow(clippy::type_complexity)]
    fn ingest_state(
        exec: &Executor,
    ) -> (
        Vec<(u64, Option<Timestamp>, Option<Timestamp>, bool)>,
        Vec<Tuple>,
    ) {
        let sources = exec
            .graph()
            .sources
            .iter()
            .map(|s| {
                (
                    s.ingested,
                    s.last_data_ts,
                    s.last_data_arrival,
                    s.ets_budget_used,
                )
            })
            .collect();
        let queued = exec
            .graph()
            .buffers
            .iter()
            .flat_map(|b| b.borrow().iter().cloned().collect::<Vec<_>>())
            .collect();
        (sources, queued)
    }

    /// Regression: a refused tuple used to count as ingested, and a batch
    /// refused mid-way recorded nothing for the prefix its buffer kept.
    #[test]
    fn refused_tuples_leave_no_source_bookkeeping() {
        let (mut exec, [s1, _], _) = external_fig4();
        exec.ingest(s1, data(10, 1)).unwrap();
        assert!(exec.ingest(s1, data(5, 2)).is_err());
        let s = exec.graph().source(s1);
        assert_eq!(
            (s.ingested, s.last_data_ts),
            (1, Some(Timestamp::from_micros(10)))
        );

        let (mut exec, [s1, _], _) = external_fig4();
        assert!(exec
            .ingest_batch(s1, vec![data(10, 1), data(5, 2)])
            .is_err());
        assert_eq!(exec.graph().total_queued(), 1);
        let s = exec.graph().source(s1);
        assert_eq!(
            (s.ingested, s.last_data_ts),
            (1, Some(Timestamp::from_micros(10)))
        );
    }

    /// `ingest_batch(s, v)` leaves exactly the state of
    /// `for t in v { ingest(s, t)? }`: the same error, queued prefix,
    /// source bookkeeping and budget re-arm — and so the same run after.
    #[test]
    fn ingest_batch_matches_per_tuple_ingest() {
        // Coverage: on-demand ETS read the baselines, and some batches
        // failed after their buffer had accepted a prefix.
        let (mut ets, mut refused_after_prefix) = (0, 0);
        for seed in 0..64u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut draw = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let (mut batched, sources, batched_out) = external_fig4();
            let (mut single, _, single_out) = external_fig4();
            let mut next = [1u64; 2];
            for round in 0..16 {
                let i = draw(2) as usize;
                let mut batch = Vec::new();
                for k in 0..draw(7) {
                    let t = match draw(8) {
                        // A mid-batch regression below the source's mark.
                        0 => data(next[i].saturating_sub(1 + draw(3)), k as i64),
                        // A mid-batch punctuation.
                        1 => Tuple::punctuation(Timestamp::from_micros(next[i])),
                        _ => {
                            next[i] += draw(3);
                            data(next[i], k as i64)
                        }
                    };
                    batch.push(t);
                }
                let at = Timestamp::from_micros(next[0].min(next[1]) + draw(4));
                let ctx = format!("seed {seed} round {round}: {batch:?}");
                for exec in [&mut batched, &mut single] {
                    exec.clock().advance_to(at);
                }
                let queued = batched.graph().total_queued();
                let b = batched.ingest_batch(sources[i], batch.clone());
                if b.is_err() && batched.graph().total_queued() > queued {
                    refused_after_prefix += 1;
                }
                let s = batch
                    .into_iter()
                    .try_for_each(|t| single.ingest(sources[i], t));
                assert_eq!(
                    b.map_err(|e| e.to_string()),
                    s.map_err(|e| e.to_string()),
                    "{ctx}"
                );
                assert_eq!(ingest_state(&batched), ingest_state(&single), "{ctx}");
                if draw(2) == 0 {
                    for exec in [&mut batched, &mut single] {
                        exec.run_until_quiescent(10_000).unwrap();
                    }
                    assert_eq!(batched.stats(), single.stats(), "{ctx}");
                    assert_eq!(batched.clock().now(), single.clock().now(), "{ctx}");
                }
            }
            ets += batched.stats().ets_generated;
            assert_eq!(
                batched_out.0.lock().unwrap().delivered,
                single_out.0.lock().unwrap().delivered
            );
        }
        assert!(
            ets > 0 && refused_after_prefix > 0,
            "{ets} {refused_after_prefix}"
        );
    }

    /// Builds unordered-S1 → Reorder → sink with the given check mode.
    fn sentinel_rig(mode: CheckMode) -> (Executor, SourceId) {
        use millstream_ops::Reorder;
        let mut b = GraphBuilder::new();
        let s1 = b.unordered_source("S1", schema(), TimestampKind::External);
        let r = b
            .operator(
                Box::new(Reorder::new("↻", schema(), TimeDelta::from_micros(100))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let _k = b
            .operator(
                Box::new(Sink::new("sink", schema(), VecCollector::default())),
                vec![Input::Op(r)],
            )
            .unwrap();
        let graph = b.build().unwrap();
        let exec = Executor::new(
            graph,
            VirtualClock::shared(),
            CostModel::default(),
            EtsPolicy::None,
        )
        .with_check_mode(mode);
        (exec, s1)
    }

    #[test]
    fn sentinel_counters_record_punct_dominance() {
        let (mut exec, s1) = sentinel_rig(CheckMode::Counters);
        exec.ingest_heartbeat(s1, Timestamp::from_micros(10))
            .unwrap();
        exec.ingest(s1, data(5, 1))
            .expect("counters mode never fails the push");
        assert_eq!(exec.stats().invariant_violations, 1);
        assert_eq!(exec.sentinel_stats().punct_violations(), 1);
        assert_eq!(
            exec.sentinel_stats().order_regressions(),
            0,
            "Accept buffers don't count regressions"
        );
    }

    #[test]
    fn sentinel_strict_escalates_punct_dominance() {
        let (mut exec, s1) = sentinel_rig(CheckMode::Strict);
        exec.ingest_heartbeat(s1, Timestamp::from_micros(10))
            .unwrap();
        let err = exec.ingest(s1, data(5, 1)).expect_err("strict escalates");
        let msg = err.to_string();
        assert!(msg.contains("punctuation-dominance"), "{msg}");
        assert!(msg.contains("src:S1"), "{msg}");
        assert_eq!(exec.stats().invariant_violations, 1, "counted too");
    }

    #[test]
    fn sentinel_off_is_inert() {
        let (mut exec, s1) = sentinel_rig(CheckMode::Off);
        exec.ingest_heartbeat(s1, Timestamp::from_micros(10))
            .unwrap();
        exec.ingest(s1, data(5, 1)).unwrap();
        assert_eq!(exec.stats().invariant_violations, 0);
    }

    /// An operator that violates its own TSM contract: it claims τ = 0
    /// forever while forwarding tuples with arbitrary timestamps — the kind
    /// of bug the tsm-consistency check exists to catch.
    struct BrokenIwp {
        schema: Schema,
    }

    impl millstream_ops::Operator for BrokenIwp {
        fn name(&self) -> &str {
            "broken"
        }
        fn is_iwp(&self) -> bool {
            true
        }
        fn tsm_min(&self) -> Option<Timestamp> {
            Some(Timestamp::ZERO)
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn output_schema(&self) -> &Schema {
            &self.schema
        }
        fn poll(&mut self, ctx: &OpContext<'_>) -> Poll {
            if ctx.input(0).is_empty() {
                Poll::starved_on(0)
            } else {
                Poll::Ready
            }
        }
        fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome> {
            let Some(t) = ctx.input_mut(0).pop() else {
                return Ok(StepOutcome::default());
            };
            ctx.output_mut(0).push(t)?;
            Ok(StepOutcome::consumed_one(1))
        }
    }

    fn broken_iwp_rig(mode: CheckMode) -> (Executor, SourceId) {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let n = b
            .operator(
                Box::new(BrokenIwp { schema: schema() }),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let _k = b
            .operator(
                Box::new(Sink::new("sink", schema(), VecCollector::default())),
                vec![Input::Op(n)],
            )
            .unwrap();
        let graph = b.build().unwrap();
        let exec = Executor::new(
            graph,
            VirtualClock::shared(),
            CostModel::default(),
            EtsPolicy::None,
        )
        .with_check_mode(mode);
        (exec, s1)
    }

    #[test]
    fn sentinel_strict_escalates_tsm_violation() {
        let (mut exec, s1) = broken_iwp_rig(CheckMode::Strict);
        exec.ingest(s1, data(5, 1)).unwrap();
        let err = exec
            .run_until_quiescent(100)
            .expect_err("forwarding past a frozen τ must abort under strict");
        let msg = err.to_string();
        assert!(msg.contains("tsm-consistency"), "{msg}");
        assert!(msg.contains("broken"), "{msg}");
    }

    #[test]
    fn sentinel_counters_record_tsm_violation() {
        let (mut exec, s1) = broken_iwp_rig(CheckMode::Counters);
        exec.ingest(s1, data(5, 1)).unwrap();
        exec.run_until_quiescent(100).expect("counters never abort");
        assert!(exec.sentinel_stats().tsm_violations() >= 1);
        assert!(exec.stats().invariant_violations >= 1);
    }
}
