//! Sim-time-aware spans and events, the [`Recorder`] sink trait, and the
//! cheap [`TelemetryHandle`] that instrumented code holds.
//!
//! Simulated subsystems do not share a wall clock — their notion of "when"
//! is `simclock::SimTime`. Spans therefore carry explicit start/end sim
//! times supplied by the caller, which makes traces **deterministic**: the
//! same seed produces byte-identical trace output. Nothing here reads the
//! wall clock: wall-clock time is measured from outside, by the benches.

use std::sync::{Arc, Mutex};

use simclock::hash::mix64;
use simclock::SimTime;

use crate::work::WorkDelta;

/// Trace-id stream salt for scserve request traces (see
/// [`TraceId::derive`]).
pub const STREAM_SERVE: u64 = 1;
/// Trace-id stream salt for scfog job traces.
pub const STREAM_FOG: u64 = 2;
/// Trace-id stream salt for smartcity-core pipeline runs.
pub const STREAM_PIPELINE: u64 = 3;

/// Identifier of one causal trace: one request, job, or pipeline run.
///
/// Derived deterministically from `(seed, stream, index)` — never random —
/// so the same seed names the same traces on every run and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the id of the `index`-th trace of `stream` under `seed`.
    ///
    /// `stream` namespaces independent trace sources sharing one recorder
    /// (e.g. serving requests vs. fog jobs) so their indices cannot
    /// collide.
    pub const fn derive(seed: u64, stream: u64, index: u64) -> TraceId {
        TraceId(mix64(
            mix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)) ^ index,
        ))
    }

    /// Fixed-width lowercase hex rendering (the export format).
    pub fn as_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Identifier of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Fixed-width lowercase hex rendering (the export format).
    pub fn as_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Propagated causal context: which trace a span belongs to, its own id,
/// and its parent span (if any). `Copy`, arithmetic-only derivation — the
/// context can flow through request paths with zero allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The parent span, or `None` for a trace root.
    pub parent: Option<SpanId>,
}

impl SpanContext {
    /// The root context of `trace`.
    pub const fn root(trace: TraceId) -> SpanContext {
        SpanContext {
            trace,
            span: SpanId(mix64(trace.0 ^ 0xA0B4_28DB)),
            parent: None,
        }
    }

    /// The context of this span's `seq`-th child. Deterministic: child ids
    /// depend only on the trace, the parent span, and the sequence number.
    pub const fn child(&self, seq: u64) -> SpanContext {
        SpanContext {
            trace: self.trace,
            span: SpanId(mix64(
                self.trace.0
                    ^ self.span.0
                    ^ seq.wrapping_add(1).wrapping_mul(0x5851_F42D_4C95_7F2D),
            )),
            parent: Some(self.span),
        }
    }
}

/// A completed span: a named interval of simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Subsystem that produced the span (e.g. `"scfog"`, `"pipeline"`).
    pub target: String,
    /// Operation name (e.g. `"ingest"`, `"stage/annotate"`).
    pub name: String,
    /// When the operation began, in simulated time.
    pub start: SimTime,
    /// When it finished, in simulated time.
    pub end: SimTime,
    /// Causal context, when the producer propagates one. Context-less
    /// spans remain valid (system-level annotations outside any trace).
    pub ctx: Option<SpanContext>,
}

impl SpanRecord {
    /// Span duration in (simulated) seconds.
    pub fn duration_s(&self) -> f64 {
        self.end.saturating_since(self.start).as_secs_f64()
    }
}

/// A point-in-time annotation on the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Subsystem that produced the event.
    pub target: String,
    /// Event name (e.g. `"replication/start"`).
    pub name: String,
    /// When it happened, in simulated time.
    pub at: SimTime,
    /// Free-form detail (kept short; exported verbatim).
    pub detail: String,
}

/// Ordered trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// See [`SpanRecord`].
    Span(SpanRecord),
    /// See [`EventRecord`].
    Event(EventRecord),
}

impl TraceRecord {
    /// Sort key: the record's (start) sim time.
    fn at(&self) -> SimTime {
        match self {
            TraceRecord::Span(s) => s.start,
            TraceRecord::Event(e) => e.at,
        }
    }

    /// The producing subsystem.
    fn target(&self) -> &str {
        match self {
            TraceRecord::Span(s) => &s.target,
            TraceRecord::Event(e) => &e.target,
        }
    }

    /// The operation or event name.
    fn name(&self) -> &str {
        match self {
            TraceRecord::Span(s) => &s.name,
            TraceRecord::Event(e) => &e.name,
        }
    }
}

/// Sink for telemetry signals. All methods default to no-ops so a recorder
/// may implement only what it cares about. A disabled handle holds no
/// recorder at all.
pub trait Recorder: Send + Sync {
    /// Adds to a named counter.
    fn add_to_counter(&self, name: &str, help: &str, n: u64) {
        let _ = (name, help, n);
    }

    /// Sets a named gauge.
    fn set_gauge(&self, name: &str, help: &str, v: i64) {
        let _ = (name, help, v);
    }

    /// Records one observation into a named (bucketed) histogram.
    fn observe(&self, name: &str, help: &str, v: f64) {
        let _ = (name, help, v);
    }

    /// Records one observation into a named **exact** histogram (every
    /// sample retained; percentiles are exact order statistics). For
    /// bounded, report-grade samples only.
    fn observe_exact(&self, name: &str, help: &str, v: f64) {
        let _ = (name, help, v);
    }

    /// Appends a completed span to the trace.
    fn record_span(&self, span: SpanRecord) {
        let _ = span;
    }

    /// Appends an event to the trace.
    fn record_event(&self, event: EventRecord) {
        let _ = event;
    }

    /// Attributes exact work (`flops`, `bytes`, …) to kernel `kernel`.
    ///
    /// Kernel names use `/` as a frame separator, e.g.
    /// `"compute/kmeans/assign"`. Deltas are integers and accumulation is
    /// addition, so totals are independent of thread count — see
    /// [`WorkDelta`]. The standard [`Telemetry`] recorder ignores work;
    /// attach a profiler (e.g. `scprof::Profiler`) to collect it.
    fn record_work(&self, kernel: &str, work: WorkDelta) {
        let _ = (kernel, work);
    }
}

/// Cheap, cloneable handle held by instrumented code.
///
/// Disabled handles (the default) cost one `Option` check per call site —
/// a few nanoseconds, no allocation, no locking — so instrumentation can
/// stay unconditionally compiled in. Strings for spans/events are only
/// materialized when a recorder is attached.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl TelemetryHandle {
    /// The disabled handle; every operation is a no-op.
    pub fn disabled() -> Self {
        TelemetryHandle { inner: None }
    }

    /// A handle routing to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        TelemetryHandle {
            inner: Some(recorder),
        }
    }

    /// Whether signals are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &str, help: &str, n: u64) {
        if let Some(r) = &self.inner {
            r.add_to_counter(name, help, n);
        }
    }

    /// Adds one to counter `name`.
    #[inline]
    pub fn counter_inc(&self, name: &str, help: &str) {
        self.counter_add(name, help, 1);
    }

    /// Sets gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &str, help: &str, v: i64) {
        if let Some(r) = &self.inner {
            r.set_gauge(name, help, v);
        }
    }

    /// Observes `v` into bucketed histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, help: &str, v: f64) {
        if let Some(r) = &self.inner {
            r.observe(name, help, v);
        }
    }

    /// Observes `v` into exact histogram `name` (every sample kept).
    #[inline]
    pub fn observe_exact(&self, name: &str, help: &str, v: f64) {
        if let Some(r) = &self.inner {
            r.observe_exact(name, help, v);
        }
    }

    /// Records a completed sim-time span with no causal context.
    #[inline]
    pub fn span(&self, target: &str, name: &str, start: SimTime, end: SimTime) {
        if let Some(r) = &self.inner {
            r.record_span(SpanRecord {
                target: target.to_string(),
                name: name.to_string(),
                start,
                end,
                ctx: None,
            });
        }
    }

    /// Records a completed sim-time span carrying causal context `ctx`.
    /// Disabled handles skip everything — no strings are materialized.
    #[inline]
    pub fn span_in(
        &self,
        target: &str,
        name: &str,
        start: SimTime,
        end: SimTime,
        ctx: SpanContext,
    ) {
        if let Some(r) = &self.inner {
            r.record_span(SpanRecord {
                target: target.to_string(),
                name: name.to_string(),
                start,
                end,
                ctx: Some(ctx),
            });
        }
    }

    /// Opens a span under `ctx`: returns a guard that derives child
    /// contexts ([`SpanGuard::child_ctx`]), records child spans
    /// ([`SpanGuard::child_span`]), and records the span itself on
    /// [`SpanGuard::finish`].
    ///
    /// The guard is `Copy`-field-only (borrowed names, arithmetic-derived
    /// ids): with telemetry disabled, propagating context through it is a
    /// complete no-op — no allocation, no locking.
    pub fn span_guard<'a>(
        &'a self,
        target: &'a str,
        name: &'a str,
        start: SimTime,
        ctx: SpanContext,
    ) -> SpanGuard<'a> {
        SpanGuard {
            handle: self,
            target,
            name,
            start,
            ctx,
            children: 0,
        }
    }

    /// Records a sim-time event. `detail` is formatted only when enabled:
    /// pass `format_args!(…)`, and a disabled handle formats nothing.
    #[inline]
    pub fn event(&self, target: &str, name: &str, at: SimTime, detail: std::fmt::Arguments<'_>) {
        if let Some(r) = &self.inner {
            r.record_event(EventRecord {
                target: target.to_string(),
                name: name.to_string(),
                at,
                detail: std::fmt::format(detail),
            });
        }
    }

    /// Attributes `work` to kernel `kernel` (see [`Recorder::record_work`]).
    /// Disabled handles skip everything; zero deltas are dropped at the
    /// recorder's discretion, so callers need not special-case them.
    #[inline]
    pub fn work(&self, kernel: &str, work: WorkDelta) {
        if let Some(r) = &self.inner {
            r.record_work(kernel, work);
        }
    }
}

/// In-flight span with causal context, returned by
/// [`TelemetryHandle::span_guard`].
///
/// The guard tracks a child sequence counter so that every child context
/// it hands out is distinct and deterministic (child ids depend only on
/// the parent context and the sequence number, never on timing). Nothing
/// is recorded until [`SpanGuard::finish`]; child spans record as they are
/// declared. All derivation is pure arithmetic on `Copy` data, so a guard
/// over a disabled handle allocates nothing.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    handle: &'a TelemetryHandle,
    target: &'a str,
    name: &'a str,
    start: SimTime,
    ctx: SpanContext,
    children: u64,
}

impl SpanGuard<'_> {
    /// Derives the next child context without recording anything — for
    /// children whose spans are recorded elsewhere (e.g. async completions).
    pub fn child_ctx(&mut self) -> SpanContext {
        let ctx = self.ctx.child(self.children);
        self.children += 1;
        ctx
    }

    /// Records a completed child span `[start, end]` under this span and
    /// returns its context.
    pub fn child_span(&mut self, name: &str, start: SimTime, end: SimTime) -> SpanContext {
        let ctx = self.child_ctx();
        self.handle.span_in(self.target, name, start, end, ctx);
        ctx
    }

    /// Records the span itself, ending at `end`.
    pub fn finish(self, end: SimTime) {
        self.handle
            .span_in(self.target, self.name, self.start, end, self.ctx);
    }
}

/// The standard full recorder: a [`crate::MetricsRegistry`] plus an ordered
/// trace buffer. Construct once per run, hand out [`TelemetryHandle`]s, and
/// export at the end.
#[derive(Debug, Default)]
pub struct Telemetry {
    registry: crate::MetricsRegistry,
    trace: Mutex<Vec<TraceRecord>>,
}

impl Telemetry {
    /// Creates an empty recorder wrapped in `Arc`, ready for handles.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A handle routing to this recorder.
    pub fn handle(self: &Arc<Self>) -> TelemetryHandle {
        TelemetryHandle::new(self.clone() as Arc<dyn Recorder>)
    }

    /// The metric store.
    pub fn registry(&self) -> &crate::MetricsRegistry {
        &self.registry
    }

    /// Copy of the trace, ordered by `(sim time, target, name)` — a total
    /// enough key that recording order (which may vary under concurrency)
    /// never leaks into exports. The sort is stable for full ties.
    pub fn trace(&self) -> Vec<TraceRecord> {
        let mut t = self.trace.lock().unwrap_or_else(|e| e.into_inner()).clone();
        t.sort_by(|a, b| {
            a.at()
                .cmp(&b.at())
                .then_with(|| a.target().cmp(b.target()))
                .then_with(|| a.name().cmp(b.name()))
        });
        t
    }

    /// Number of trace records.
    pub fn trace_len(&self) -> usize {
        self.trace.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Recorder for Telemetry {
    fn add_to_counter(&self, name: &str, help: &str, n: u64) {
        self.registry
            .counter(name, help)
            .as_counter()
            .expect("counter")
            .add(n);
    }

    fn set_gauge(&self, name: &str, help: &str, v: i64) {
        self.registry
            .gauge(name, help)
            .as_gauge()
            .expect("gauge")
            .set(v);
    }

    fn observe(&self, name: &str, help: &str, v: f64) {
        self.registry
            .histogram(name, help)
            .as_histogram()
            .expect("histogram")
            .observe(v);
    }

    fn observe_exact(&self, name: &str, help: &str, v: f64) {
        self.registry
            .exact_histogram(name, help)
            .as_histogram()
            .expect("histogram")
            .observe(v);
    }

    fn record_span(&self, span: SpanRecord) {
        self.trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(TraceRecord::Span(span));
    }

    fn record_event(&self, event: EventRecord) {
        self.trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(TraceRecord::Event(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TelemetryHandle::disabled();
        assert!(!h.is_enabled());
        h.counter_inc("x_total", "x");
        h.observe("y_seconds", "y", 1.0);
        h.span("t", "s", SimTime::from_secs(0), SimTime::from_secs(1));
    }

    #[test]
    fn telemetry_records_everything() {
        let t = Telemetry::shared();
        let h = t.handle();
        assert!(h.is_enabled());
        h.counter_add("jobs_total", "jobs", 5);
        h.gauge_set("lag", "lag", 3);
        h.observe("latency_seconds", "lat", 0.25);
        h.observe_exact("exact_seconds", "exact lat", 0.5);
        h.span(
            "sim",
            "job",
            SimTime::from_millis(10),
            SimTime::from_millis(30),
        );
        h.event("sim", "done", SimTime::from_millis(30), format_args!("ok"));

        assert_eq!(
            t.registry()
                .get("jobs_total")
                .unwrap()
                .as_counter()
                .unwrap()
                .get(),
            5
        );
        assert_eq!(
            t.registry().get("lag").unwrap().as_gauge().unwrap().get(),
            3
        );
        let exact = t.registry().get("exact_seconds").unwrap();
        assert_eq!(
            exact.as_histogram().unwrap().mode(),
            crate::HistogramMode::Exact
        );
        let trace = t.trace();
        assert_eq!(trace.len(), 2);
        match &trace[0] {
            TraceRecord::Span(s) => assert!((s.duration_s() - 0.020).abs() < 1e-12),
            other => panic!("expected span first, got {other:?}"),
        }
    }

    #[test]
    fn trace_sorts_by_sim_time() {
        let t = Telemetry::shared();
        let h = t.handle();
        h.event("a", "late", SimTime::from_secs(9), format_args!(""));
        h.event("a", "early", SimTime::from_secs(1), format_args!(""));
        let trace = t.trace();
        assert_eq!(trace[0].at(), SimTime::from_secs(1));
        assert_eq!(trace[1].at(), SimTime::from_secs(9));
    }

    #[test]
    fn trace_ids_are_deterministic_and_stream_scoped() {
        assert_eq!(TraceId::derive(42, 1, 7), TraceId::derive(42, 1, 7));
        assert_ne!(TraceId::derive(42, 1, 7), TraceId::derive(42, 2, 7));
        assert_ne!(TraceId::derive(42, 1, 7), TraceId::derive(43, 1, 7));
        assert_eq!(TraceId(0xabc).as_hex(), "0000000000000abc");
    }

    #[test]
    fn child_contexts_are_distinct_and_parented() {
        let root = SpanContext::root(TraceId::derive(1, 1, 0));
        assert!(root.parent.is_none());
        let a = root.child(0);
        let b = root.child(1);
        assert_eq!(a.parent, Some(root.span));
        assert_eq!(a.trace, root.trace);
        assert_ne!(a.span, b.span);
        assert_ne!(a.span, root.span);
        // Grandchildren diverge from children even at the same seq.
        assert_ne!(a.child(0).span, b.child(0).span);
    }

    #[test]
    fn span_guard_records_root_and_children() {
        let t = Telemetry::shared();
        let h = t.handle();
        let root = SpanContext::root(TraceId::derive(9, 1, 0));
        let mut g = h.span_guard("tgt", "request", SimTime::ZERO, root);
        let c0 = g.child_span("queue", SimTime::ZERO, SimTime::from_millis(1));
        let c1 = g.child_ctx();
        h.span_in(
            "tgt",
            "backend",
            SimTime::from_millis(1),
            SimTime::from_millis(3),
            c1,
        );
        g.finish(SimTime::from_millis(3));

        let spans: Vec<SpanRecord> = t
            .trace()
            .into_iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 3);
        for s in &spans {
            assert_eq!(s.ctx.unwrap().trace, root.trace);
        }
        assert_eq!(c0.parent, Some(root.span));
        assert_eq!(c1.parent, Some(root.span));
        assert_ne!(c0.span, c1.span);
        let root_span = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(root_span.ctx.unwrap().parent, None);
    }

    #[test]
    fn disabled_span_guard_is_inert() {
        let h = TelemetryHandle::disabled();
        let root = SpanContext::root(TraceId::derive(3, 1, 0));
        let mut g = h.span_guard("tgt", "request", SimTime::ZERO, root);
        let child = g.child_span("c", SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(child.parent, Some(root.span));
        g.finish(SimTime::from_millis(1));
    }

    #[test]
    fn dynamic_metric_names_work() {
        let t = Telemetry::shared();
        let h = t.handle();
        for tier in ["edge", "fog"] {
            h.observe(&format!("scfog_sim_busy_{tier}_seconds"), "busy", 0.1);
        }
        assert!(t.registry().get("scfog_sim_busy_edge_seconds").is_some());
        assert!(t.registry().get("scfog_sim_busy_fog_seconds").is_some());
    }
}
