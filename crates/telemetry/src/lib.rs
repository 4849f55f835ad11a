//! # sctelemetry — sim-time-aware observability for the smart-city stack
//!
//! The paper's four-layer cyberinfrastructure is defined by latencies, queue
//! depths, and cross-tier byte flows; this crate is the layer that makes
//! those visible. It provides:
//!
//! - a [`MetricsRegistry`] of [`Counter`]s, [`Gauge`]s, and [`Histogram`]s
//!   (log-scaled buckets for unbounded volumes, exact samples for
//!   report-grade order statistics),
//! - sim-time-aware [`trace::SpanRecord`]s and [`trace::EventRecord`]s whose
//!   timestamps are `simclock::SimTime`, so traces are **deterministic**:
//!   the same seed produces byte-identical exports,
//! - a deterministic Prometheus text-format exporter ([`prometheus_text`]),
//! - a [`Probe`] seam through which a caller observes each layer call of
//!   an engine's run (the city day, the Fig. 4 pipeline) on its own clock,
//! - the one counting allocator ([`CountingAlloc`]) and its reading
//!   ([`counted`]), which every allocation pin and E14 take.
//!
//! Instrumented code holds a [`TelemetryHandle`]; the disabled default costs
//! one `Option` check per call site (a few nanoseconds, no allocation), so
//! instrumentation stays unconditionally compiled in. Attach a full
//! [`Telemetry`] recorder to collect, or any custom [`Recorder`].
//!
//! Metric names follow `<crate>_<subsystem>_<thing>_<unit>`
//! (e.g. `scfog_sim_queue_wait_edge_seconds`); counters end in `_total`.
//!
//! # Examples
//!
//! ```
//! use sctelemetry::{Telemetry, prometheus_text};
//! use simclock::SimTime;
//!
//! let t = Telemetry::shared();
//! let h = t.handle();
//! h.counter_inc("demo_jobs_total", "jobs processed");
//! h.observe("demo_latency_seconds", "job latency", 0.012);
//! h.span("demo", "job", SimTime::ZERO, SimTime::from_millis(12));
//! let text = prometheus_text(t.registry());
//! assert!(text.contains("# TYPE demo_jobs_total counter"));
//! ```

mod export;
mod heap;
mod metrics;
mod probe;
mod report;
mod stats;
mod trace;
mod work;

pub use export::prometheus_text;
pub use heap::{counted, AllocCount, CountingAlloc};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramMode, HistogramSnapshot, Metric, MetricEntry, MetricError,
    MetricsRegistry,
};
pub use probe::Probe;
pub use report::Report;
pub use stats::{percentile_sorted, SampleSummary};
pub use trace::{
    EventRecord, Recorder, SpanContext, SpanGuard, SpanId, SpanRecord, Telemetry, TelemetryHandle,
    TraceId, TraceRecord, STREAM_FOG, STREAM_PIPELINE, STREAM_SERVE,
};
pub use work::WorkDelta;
