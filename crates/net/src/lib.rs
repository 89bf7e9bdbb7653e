//! # millstream-net
//!
//! Networked stream ingest/egress for millstream: a framed binary wire
//! protocol ([`frame`]), the `msq serve` TCP engine host ([`server`]),
//! and the `msq send` producer / `msq tail` subscriber clients
//! ([`client`]).
//!
//! The protocol carries the paper's timestamp discipline onto the wire:
//! data frames and heartbeat frames share one sequence space per
//! connection, acks confirm both the sequence and the source's data
//! high-water mark (the resume point after a reconnect), and a producer
//! connection going silent past the idle timeout triggers the server's
//! on-demand heartbeat synthesis — the network-age reading of the
//! paper's on-demand ETS generation at starved sources.
//!
//! Pressure flows the other way as **feedback punctuation**
//! ([`Frame::Feedback`]): the server classifies the engine's deepest
//! operator input backlog and its deepest subscriber queue against
//! [`Watermarks`] into producer send-window requests, and declares any
//! subscriber-side load shedding with cumulative drop notices instead of
//! silent loss or bare disconnects. The engine itself neither sheds nor
//! reacts to pressure.
//!
//! See `DESIGN.md` §8 for the full wire contract and §9 for the feedback
//! channel.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{backoff_delay, ClientConfig, ClientReport, StreamClient, Subscription};
pub use frame::{
    write_frame, ErrorCode, Frame, FrameReader, ReadOutcome, Role, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{
    OverflowPolicy, PortReport, Server, ServerConfig, ServerReport, ServerStats, Watermarks,
};
