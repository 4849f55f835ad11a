//! # scprof — deterministic continuous profiling for the smart-city stack
//!
//! The paper's cyberinfrastructure is sold on staying fast at city scale;
//! this crate is what makes that claim *measurable*: **deterministic
//! work accounting** layered over sctelemetry. Instrumented kernels
//! attribute exact integer costs ([`sctelemetry::WorkDelta`]: FLOPs,
//! bytes, modeled cache hits/misses, items) to `/`-separated kernel
//! names. A [`Profiler`] (a [`sctelemetry::Recorder`] decorator)
//! aggregates them into a [`ProfileReport`] whose per-kernel work and
//! folded-stack export are **identical for identical seeds at any
//! `SCPAR_THREADS`**, because integer addition is commutative. Rates
//! (GFLOP/s, bytes/s) are attached separately via
//! [`ProfileReport::with_elapsed`] — wall time for benches,
//! deterministic sim time for golden artifacts.
//!
//! # Examples
//!
//! ```
//! use sctelemetry::WorkDelta;
//! use scprof::{CostDimension, Profiler};
//!
//! let prof = Profiler::shared();
//! let h = prof.handle();
//! h.work("neural/matmul", WorkDelta::flops(2 * 8 * 8 * 8).with_bytes(3 * 8 * 8 * 8));
//! h.work("pipeline/ingest", WorkDelta::items(100));
//!
//! let report = prof.report();
//! assert_eq!(report.total.flops, 1024);
//! let folded = report.folded(CostDimension::Flops);
//! assert_eq!(folded, "neural;matmul 1024\n");
//! ```

mod profiler;
mod report;

pub use profiler::Profiler;
pub use report::{CostDimension, KernelProfile, ProfileReport};
