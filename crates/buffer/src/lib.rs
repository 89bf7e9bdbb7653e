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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fifo;
mod occupancy;
mod sentinel;
mod tsm;

pub use fifo::{punctuation_is_stale, Buffer, OrderPolicy, PunctuationPolicy};
pub use occupancy::OccupancyTracker;
pub use sentinel::{CheckMode, OrderSentinel, SentinelStats};
pub use tsm::{StarveList, TsmBank, TsmRegister};
