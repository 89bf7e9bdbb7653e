//! # millstream-sim
//!
//! The discrete-event simulation substrate that stands in for the paper's
//! wall-clock testbed (a P4 2.8 GHz Linux host running Stream Mill):
//!
//! * [`EventQueue`] — a deterministic event calendar on virtual time;
//! * [`ArrivalProcess`] / [`PayloadGen`] — Poisson, constant-rate and
//!   bursty workload generators (§6's tuple generator);
//! * [`Simulation`] — the driver that plays external wrappers, feeding the
//!   executor and jumping the clock across idle periods;
//! * [`run_union_experiment`] / [`run_join_experiment`] — the prebuilt
//!   Fig. 4 experiment in its four §6 variants (lines A/B/C/D), the basis
//!   for every figure harness in `millstream-bench` and for `benchmark/`'s
//!   `sim.fig7_*`/`sim.fig8_*` cells.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod driver;
mod events;
mod experiment;
mod fuzz;
mod replay;
mod workload;

pub use driver::{SharedLatencyCollector, SimReport, Simulation, StreamSpec};
pub use events::{Event, EventKind, EventQueue};
pub use experiment::{
    run_disorder_experiment, run_join_experiment, run_union_experiment, DisorderExperiment,
    DisorderReport, JoinExperiment, Strategy, UnionExperiment,
};
pub use fuzz::{describe_seed, fuzz_range, fuzz_seed, FuzzSummary};
pub use replay::{parse_trace, replay, TraceRecord};
pub use workload::{ArrivalProcess, PayloadGen};
