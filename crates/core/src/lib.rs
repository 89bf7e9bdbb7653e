//! # millstream
//!
//! A data stream management system (DSMS) with **on-demand Enabling
//! Time-Stamp (ETS) management** — a from-scratch Rust reproduction of
//!
//! > Bai, Thakkar, Wang, Zaniolo. *Optimizing Timestamp Management in Data
//! > Stream Management Systems.* ICDE 2007.
//!
//! Multi-input stream operators (union, window join) stall — *idle-wait* —
//! whenever one input is temporarily silent, because a future tuple there
//! could carry a smaller timestamp. millstream implements the paper's
//! remedy: a depth-first query-graph executor whose **backtrack rule
//! generates an enabling timestamp at the starved source on demand**,
//! reactivating idle-waiting operators with punctuation traffic bounded by
//! the data rate. The periodic-heartbeat baseline, the no-ETS baseline and
//! the latent-timestamp lower bound are implemented alongside for the
//! paper's full evaluation.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `millstream-types` | timestamps, tuples, punctuation, schemas, expressions |
//! | [`buffer`] | `millstream-buffer` | FIFO arcs, TSM registers, occupancy tracking |
//! | [`ops`] | `millstream-ops` | selection, projection, union, window join, aggregation, sinks |
//! | [`exec`] | `millstream-exec` | query graphs, the NOS executor, ETS policies, virtual clock |
//! | [`metrics`] | `millstream-metrics` | latency histograms, idle-time integration |
//! | [`sim`] | `millstream-sim` | discrete-event driver, workloads, the §6 experiments |
//! | [`query`] | `millstream-query` | the continuous-query language (lexer/parser/planner) |
//!
//! ## Quick start
//!
//! ```
//! use millstream_core::QueryRunner;
//! use millstream_types::Value;
//!
//! let mut q = QueryRunner::new(
//!     "CREATE STREAM sensors (id INT, temp FLOAT);
//!      CREATE STREAM manual (id INT, temp FLOAT);
//!      SELECT id, temp FROM sensors WHERE temp > 30.0
//!      UNION
//!      SELECT id, temp FROM manual;",
//! ).unwrap();
//! q.push("sensors", 1_000, vec![Value::Int(1), Value::Float(35.5)]).unwrap();
//! q.push("manual", 2_000, vec![Value::Int(2), Value::Float(20.0)]).unwrap();
//! let out = q.finish().unwrap();
//! assert_eq!(out.len(), 2);
//! ```
//!
//! For the paper's experiments, see [`sim::run_union_experiment`] and the
//! figure harnesses in `millstream-bench`; wall-clock performance is
//! measured by the repository's `benchmark/` package.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod runner;

pub use runner::{plan_sharded, QueryRunner};

pub use millstream_buffer as buffer;
pub use millstream_exec as exec;
pub use millstream_metrics as metrics;
pub use millstream_ops as ops;
pub use millstream_query as query;
pub use millstream_sim as sim;
pub use millstream_types as types;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::QueryRunner;
    pub use millstream_exec::{
        Activity, CostModel, EtsPolicy, ExecStats, Executor, GraphBuilder, Input, NodeId,
        OpProfile, ParallelConfig, ParallelExecutor, ParallelSnapshot, QueryGraph, SchedPolicy,
        SourceId, VirtualClock,
    };
    pub use millstream_metrics::{LatencyRecorder, RunMetrics};
    pub use millstream_ops::{
        Filter, LatePolicy, MultiWindowJoin, Operator, Project, Reorder, Sink, SinkCollector,
        SlidingAggregate, Split, Union, VecCollector,
    };
    pub use millstream_sim::{
        run_disorder_experiment, run_join_experiment, run_union_experiment, ArrivalProcess,
        DisorderExperiment, JoinExperiment, PayloadGen, Simulation, Strategy, StreamSpec,
        UnionExperiment,
    };
    pub use millstream_types::{
        DataType, Error, Expr, Field, Result, Schema, TimeDelta, Timestamp, TimestampKind, Tuple,
        Value,
    };
}
