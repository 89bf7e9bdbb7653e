//! # millstream-ops
//!
//! The operator library of the millstream DSMS — implementations of the
//! paper's Fig. 1 / Fig. 6 execution rules:
//!
//! * non-IWP operators: [`Filter`] (selection), [`Project`],
//!   [`SlidingAggregate`] (pane-based windowed aggregation, tumbling or
//!   overlapping), and [`Reorder`] (slack-based order restoration for
//!   disordered external streams);
//! * IWP operators: [`Union`] (n-ary merging, with latent-timestamp mode)
//!   and [`MultiWindowJoin`] (symmetric window join over two or more
//!   inputs), both built on TSM registers and the relaxed `more`
//!   condition;
//! * [`Sink`] with pluggable [`SinkCollector`]s (punctuation elimination,
//!   latency capture).
//!
//! Operators implement the [`Operator`] trait: `poll` evaluates the `more`
//! condition and names the starving inputs for backtracking; `step`
//! performs one production/consumption cycle.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod aggregate;
mod context;
mod filter;
mod join_state;
mod multijoin;
mod project;
mod reorder;
mod sink;
mod sliding;
mod spill;
mod split;
mod union;

pub use aggregate::{AggExpr, AggFunc};
pub use context::{BatchOutcome, OpContext, Operator, Poll, StepOutcome};
pub use filter::{DropBehavior, Filter};
pub use join_state::{JoinState, SpillStats, TierConfig};
pub use multijoin::MultiWindowJoin;
pub use project::Project;
pub use reorder::{LatePolicy, Reorder};
pub use sink::{CountingCollector, Sink, SinkCollector, VecCollector};
pub use sliding::SlidingAggregate;
pub use split::Split;
pub use union::Union;
