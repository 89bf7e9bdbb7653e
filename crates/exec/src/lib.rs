//! # millstream-exec
//!
//! Query graphs, the depth-first NOS executor and timestamp-management
//! strategies — the primary contribution of the reproduced paper.
//!
//! * [`GraphBuilder`] / [`QueryGraph`] — operator DAGs with buffer arcs,
//!   source and sink nodes (paper §3, Figs. 2 and 4);
//! * [`Executor`] — the two-step execution cycle with the
//!   Forward/Encore/Backtrack *Next Operator Selection* rules (§3.1–3.2),
//!   per-step virtual-CPU costing, and **on-demand Enabling Time-Stamp
//!   generation inside the backtrack mechanism** (§4–5);
//! * [`Engine`] — the one driving surface (advance, ingest, heartbeat,
//!   close, run to quiescence) over the serial, per-component parallel
//!   and key-sharded backends;
//! * [`EtsPolicy`] — the §5 generation rules (internal clock, external
//!   skew-bound `t + τ − δ`);
//! * [`VirtualClock`] / [`CostModel`] — the deterministic timeline the
//!   experiments run on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clock;
mod engine;
mod exchange;
mod executor;
mod graph;
mod parallel;
mod strategy;

pub use clock::{CostModel, VirtualClock};
pub use engine::Engine;
pub use exchange::{ShardOutput, ShardedConfig, ShardedExecutor, ShardedSnapshot, MAX_SHARDS};
pub use executor::{Activity, ExecOptions, ExecStats, Executor, OpProfile, SchedPolicy};
pub use graph::{
    route_shard, BufferId, ComponentGraph, ComponentPartition, GraphBuilder, Input, NodeId, Pred,
    QueryGraph, ShardKey, SourceId, SourceState, SHARD_HASH_SEED,
};
pub use millstream_buffer::{CheckMode, SentinelStats};
pub use parallel::{ParallelConfig, ParallelExecutor, ParallelSnapshot};
pub use strategy::{frontier_advance, EtsPolicy};
