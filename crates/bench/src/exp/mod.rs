//! Each experiment's seeded half, one module per `BENCH_<name>.json`.
//!
//! A module's `run(quick)` prints the experiment's paper-shaped table and
//! returns the numbers behind it. `quick` shrinks the run to the size
//! `tests/golden/bench_baseline/` pins. Nothing here reads the wall clock
//! or the environment, so the experiments can run side by side in one
//! test binary. The tables that are wall-clock by nature (E1, E9, E10,
//! E14, E15) are `benches/experiments.rs`'s; it calls the helpers those
//! modules export.

use crate::BenchJson;

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod metropolis;

/// An experiment's seeded half: `quick` in, the recorded numbers out.
type Experiment = fn(bool) -> BenchJson;

/// Every experiment, by the name its `BENCH_<name>.json` carries.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", e1::run),
    ("e2", e2::run),
    ("e3", e3::run),
    ("e4", e4::run),
    ("e5", e5::run),
    ("e6", e6::run),
    ("e7", e7::run),
    ("e8", e8::run),
    ("e9", e9::run),
    ("e10", e10::run),
    ("e11", e11::run),
    ("e12", e12::run),
    ("e13", e13::run),
    ("e14", e14::run),
    ("e15", e15::run),
    ("e16", e16::run),
    ("e17", e17::run),
    ("e18", e18::run),
    ("metropolis", metropolis::run),
];
