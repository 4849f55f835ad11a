//! Metropolis: the closed-loop macro-benchmark of the whole stack.
//!
//! The source paper sizes a city-scale cyberinfrastructure — Kafka
//! ingest, HDFS archival, deep-learning inference, HBase-backed serving
//! — and argues it can carry millions of residents. This crate is the
//! repo's end-to-end rehearsal of that claim on sim-time:
//!
//! 1. [`PopulationModel`] turns "N users × Q queries/day" into an exact
//!    per-window demand series with diurnal peaks and seeded flash
//!    crowds ([`FlashCrowd`]).
//! 2. [`TopologyPlan`] sizes brokers, partitions, DFS nodes, and the
//!    initial serving fleet from measured-throughput guidelines —
//!    deliberately for the *mean*, so peaks outgrow it ([`SizingGuidelines`]).
//! 3. [`MetroSim`] executes the day: ingest through [`scstream`],
//!    archival through [`scdfs`], queries and inference through
//!    [`scserve`] + [`scneural`], all under one shared
//!    [`scfault::FaultPlan`], one [`DayOp`] per layer call.
//! 4. [`AutoscalePolicy`] closes the loop: burn rates
//!    ([`scobserve::BurnMeter`]) and utilization feed hysteresis-guarded
//!    scaling decisions applied back to the live server ([`ScaleDecision`]).
//!
//! Everything is seeded and env-free: the same [`MetroConfig`] yields a
//! byte-identical [`MetroReport`] — scaling-decision log included — at
//! any thread count or SIMD ISA. Experiment E19 (`scbench::exp::metropolis`)
//! publishes the run through the perf observatory as
//! `BENCH_metropolis.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoscale;
mod population;
mod sim;
mod topology;

pub use autoscale::{
    slo, AutoscaleConfig, AutoscalePolicy, ScaleAction, ScaleDecision, MIN_SHARDS,
};
pub use population::{apportion, FlashCrowd, PopulationConfig, PopulationModel};
pub use sim::{DayOp, MetroConfig, MetroReport, MetroSim, WindowStats};
pub use topology::{SizingGuidelines, TopologyPlan};
