//! # millstream-buffer
//!
//! Inter-operator buffers and Time-Stamp Memory registers for the
//! millstream DSMS.
//!
//! * [`Buffer`] — the FIFO arc of a query graph, with stream-order
//!   enforcement, configurable out-of-order handling and optional
//!   punctuation coalescing.
//! * [`TsmRegister`] / [`TsmBank`] — the per-input Time-Stamp Memory of
//!   idle-waiting-prone operators (paper §4.1).
//! * [`OccupancyTracker`] — graph-wide queue occupancy and peak accounting
//!   (the Fig. 8 "peak total queue size" metric).
//! * [`OrderSentinel`] / [`SentinelStats`] / [`CheckMode`] — the opt-in
//!   runtime ordering-contract checks (`MILLSTREAM_CHECK={off,counters,strict}`).
//! * [`PressureLevel`] / [`Watermarks`] / [`FeedbackRegisters`] —
//!   feedback punctuation flowing against the data
//!   direction (queue-pressure levels, upstream pacing and declared
//!   shedding).
//! * [`FrontierTable`] — per-worker frontier summaries for intra-component
//!   data parallelism (the sharded generalization of per-source ETS/TSM
//!   registers).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod feedback;
mod fifo;
mod frontier;
mod occupancy;
mod sentinel;
mod tsm;

pub use feedback::{FeedbackRegisters, PressureLevel, Watermarks};
pub use fifo::{punctuation_is_stale, Buffer, OrderPolicy, PunctuationPolicy};
pub use frontier::FrontierTable;
pub use occupancy::OccupancyTracker;
pub use sentinel::{CheckMode, OrderSentinel, SentinelStats};
pub use tsm::{StarveList, TsmBank, TsmRegister};
