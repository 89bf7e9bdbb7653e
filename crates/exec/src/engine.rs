//! The one engine-driving surface.
//!
//! [`Executor`], [`ParallelExecutor`] and [`ShardedExecutor`] are driven
//! the same way — advance the clock, ingest data or a heartbeat, run to
//! quiescence, close — and differ only in how they are *constructed*.
//! [`Engine`] is that shared loop vocabulary, so a driver (the
//! `QueryRunner`, the trace replay behind `msq`, the differential fuzzer's
//! replay) is written once over `dyn Engine` instead of once per backend.
//! Every method delegates to the inherent method of the same name;
//! construction, configuration and backend-specific introspection
//! (snapshots, frontier tables) stay on the concrete types.

use millstream_types::{Result, Timestamp, Tuple};

use crate::exchange::ShardedExecutor;
use crate::executor::{ExecStats, Executor, OpProfile};
use crate::graph::SourceId;
use crate::parallel::ParallelExecutor;

/// What a driver needs from an execution backend.
pub trait Engine {
    /// Advances the engine's clock(s) to at least `ts`.
    fn advance_to(&mut self, ts: Timestamp) -> Result<()>;

    /// Ingests a data tuple at `source`. The threaded backends are
    /// fire-and-forget: an error the tuple causes may surface from the
    /// next [`Engine::run_until_quiescent`] instead.
    fn ingest(&mut self, source: SourceId, tuple: Tuple) -> Result<()>;

    /// Ingests a heartbeat punctuation at `source`.
    fn ingest_heartbeat(&mut self, source: SourceId, ts: Timestamp) -> Result<()>;

    /// Declares end-of-stream on `source` (idempotent).
    fn close_source(&mut self, source: SourceId) -> Result<()>;

    /// Runs until every part of the engine is quiescent (or `max_steps`
    /// per serial executor inside it); returns the steps taken.
    fn run_until_quiescent(&mut self, max_steps: u64) -> Result<u64>;

    /// Executor counters summed over the whole engine. Sentinel
    /// violations of every stage — including the sharded merge input's
    /// frontier-consistency check — count in `invariant_violations`.
    fn stats(&self) -> Result<ExecStats>;

    /// Per-operator profile in plan order.
    fn profile(&self) -> Result<Vec<OpProfile>>;
}

impl Engine for Executor {
    fn advance_to(&mut self, ts: Timestamp) -> Result<()> {
        self.clock().advance_to(ts);
        Ok(())
    }

    fn ingest(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        Executor::ingest(self, source, tuple)
    }

    fn ingest_heartbeat(&mut self, source: SourceId, ts: Timestamp) -> Result<()> {
        Executor::ingest_heartbeat(self, source, ts)
    }

    fn close_source(&mut self, source: SourceId) -> Result<()> {
        Executor::close_source(self, source)
    }

    fn run_until_quiescent(&mut self, max_steps: u64) -> Result<u64> {
        Executor::run_until_quiescent(self, max_steps)
    }

    fn stats(&self) -> Result<ExecStats> {
        Ok(Executor::stats(self))
    }

    fn profile(&self) -> Result<Vec<OpProfile>> {
        Ok(Executor::profile(self).to_vec())
    }
}

impl Engine for ParallelExecutor {
    fn advance_to(&mut self, ts: Timestamp) -> Result<()> {
        ParallelExecutor::advance_to(self, ts)
    }

    fn ingest(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        ParallelExecutor::ingest(self, source, tuple)
    }

    fn ingest_heartbeat(&mut self, source: SourceId, ts: Timestamp) -> Result<()> {
        ParallelExecutor::ingest_heartbeat(self, source, ts)
    }

    fn close_source(&mut self, source: SourceId) -> Result<()> {
        ParallelExecutor::close_source(self, source)
    }

    fn run_until_quiescent(&mut self, max_steps: u64) -> Result<u64> {
        ParallelExecutor::run_until_quiescent(self, max_steps)
    }

    fn stats(&self) -> Result<ExecStats> {
        Ok(self.snapshot()?.stats)
    }

    fn profile(&self) -> Result<Vec<OpProfile>> {
        Ok(self.snapshot()?.profile)
    }
}

impl Engine for ShardedExecutor {
    fn advance_to(&mut self, ts: Timestamp) -> Result<()> {
        ShardedExecutor::advance_to(self, ts)
    }

    fn ingest(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        ShardedExecutor::ingest(self, source, tuple)
    }

    fn ingest_heartbeat(&mut self, source: SourceId, ts: Timestamp) -> Result<()> {
        ShardedExecutor::ingest_heartbeat(self, source, ts)
    }

    fn close_source(&mut self, source: SourceId) -> Result<()> {
        ShardedExecutor::close_source(self, source)
    }

    fn run_until_quiescent(&mut self, max_steps: u64) -> Result<u64> {
        ShardedExecutor::run_until_quiescent(self, max_steps)
    }

    fn stats(&self) -> Result<ExecStats> {
        let snap = self.snapshot()?;
        let mut stats = snap.stats;
        stats.invariant_violations += snap.frontier_violations;
        Ok(stats)
    }

    fn profile(&self) -> Result<Vec<OpProfile>> {
        Ok(self.snapshot()?.profile)
    }
}
