//! # scobserve — trace analytics and deterministic alerting
//!
//! `sctelemetry` records what happened; this crate explains it. Three
//! pieces, all byte-deterministic for a given seed:
//!
//! - **Span trees** ([`TraceForest`]): flat span records carrying
//!   [`sctelemetry::SpanContext`] are reassembled into per-request causal
//!   trees, with orphan detection (a span whose parent was never
//!   recorded) — the smart-city serving, fog, and pipeline layers must
//!   produce complete trees for every request.
//! - **Trace analytics**: per-request [`critical_path`] extraction whose
//!   segment durations partition the request latency exactly,
//!   p50/p99/max [`exemplars`] naming the actual traces behind the
//!   percentiles, and exporters — Chrome `trace_event` JSON
//!   ([`chrome_trace`]) and folded-stack flamegraph text
//!   ([`folded_stacks`]).
//! - **SLO engine** ([`evaluate`]): declarative [`SloRule`]s
//!   (availability, latency-bound, loss) over windowed sample streams,
//!   with Google-SRE multi-window burn-rate alerts and optional EWMA
//!   z-score anomaly detection, producing a stable [`AlertReport`] —
//!   fault and overload sweeps must trip it, quiet baselines must not.
//!   For closed-loop consumers (the scmetro autoscaler), [`BurnMeter`]
//!   exposes the same multi-window burn-rate semantics incrementally,
//!   one short window at a time.
//!
//! Trace ids are derived, never random: `TraceId::derive(seed, stream,
//! index)` with the per-subsystem stream salts below, so traces from
//! different layers sharing one recorder can never collide and the same
//! seed names the same traces at any thread count.
//!
//! # Examples
//!
//! ```
//! use sctelemetry::{SpanContext, Telemetry, TraceId};
//! use scobserve::{critical_path, TraceForest, STREAM_SERVE};
//! use simclock::SimTime;
//!
//! let t = Telemetry::shared();
//! let h = t.handle();
//! let root = SpanContext::root(TraceId::derive(42, STREAM_SERVE, 0));
//! let mut g = h.span_guard("scserve", "request/get", SimTime::ZERO, root);
//! g.child_span("admission/queue", SimTime::ZERO, SimTime::from_micros(80));
//! g.child_span("backend/shard-0", SimTime::from_micros(80), SimTime::from_micros(580));
//! g.finish(SimTime::from_micros(580));
//!
//! let forest = TraceForest::from_records(&t.trace());
//! let tree = &forest.traces[0];
//! assert!(tree.is_complete());
//! let path = critical_path(tree).unwrap();
//! assert_eq!(path.total().as_micros(), 580);
//! ```

mod export;
mod path;
mod slo;
mod tree;

pub use export::{chrome_trace, folded_stacks};
pub use path::{
    critical_path, exemplar_paths, exemplars, CriticalPath, Exemplar, PathSegment, SegmentKind,
};
pub use slo::{
    availability_stream, burn_over_series, evaluate, latency_stream, Alert, AlertKind, AlertReport,
    BurnMeter, BurnSignal, SloKind, SloRule, SloSample,
};
pub use tree::{SpanNode, TraceForest, TraceTree};

pub use sctelemetry::{STREAM_FOG, STREAM_PIPELINE, STREAM_SERVE};

use sctelemetry::{Telemetry, TraceId};
use simclock::SimTime;

/// Names of the trace events that mark a request or job as lost: a shed
/// serving request and an abandoned fog job. Other `trace=`-tagged events
/// (a fog reroute, requeue or degraded step) are not losses.
const LOSS_MARKERS: [&str; 2] = ["request/shed", "job/lost"];

/// One-stop analysis over a recorder: forest assembly plus the derived
/// artifacts the dashboard and benches consume.
#[derive(Debug)]
pub struct TraceAnalysis {
    /// The assembled forest.
    pub forest: TraceForest,
    /// Loss markers (`request/shed`, `job/lost`) harvested from trace
    /// events whose detail carries a `trace=<hex>` tag, as `(marker name,
    /// trace id, event time)`.
    pub bad_marks: Vec<(&'static str, TraceId, SimTime)>,
}

impl TraceAnalysis {
    /// Assembles the forest and harvests the loss markers (shed requests,
    /// lost jobs) from `telemetry`'s trace buffer.
    pub fn new(telemetry: &Telemetry) -> TraceAnalysis {
        let records = telemetry.trace();
        let forest = TraceForest::from_records(&records);
        let mut bad_marks = Vec::new();
        for r in &records {
            let sctelemetry::TraceRecord::Event(e) = r else {
                continue;
            };
            let Some(&marker) = LOSS_MARKERS.iter().find(|&&m| m == e.name) else {
                continue;
            };
            if let Some(hex) = e
                .detail
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("trace="))
            {
                if let Ok(id) = u64::from_str_radix(hex, 16) {
                    bad_marks.push((marker, TraceId(id), e.at));
                }
            }
        }
        TraceAnalysis { forest, bad_marks }
    }

    /// Exemplar critical paths for roots named under `prefix` (see
    /// [`exemplar_paths`]).
    pub fn exemplar_paths(&self, prefix: &str) -> Vec<(Exemplar, Option<CriticalPath>)> {
        exemplar_paths(&self.forest, prefix)
    }

    /// Availability samples for roots under `prefix`, using the harvested
    /// loss markers named under the same `prefix` as bad samples (see
    /// [`availability_stream`]).
    pub fn availability(&self, prefix: &str) -> Vec<SloSample> {
        let marks: Vec<(TraceId, SimTime)> = self
            .bad_marks
            .iter()
            .filter(|(marker, _, _)| marker.starts_with(prefix))
            .map(|&(_, trace, at)| (trace, at))
            .collect();
        availability_stream(&self.forest, prefix, &marks)
    }

    /// Latency samples for roots under `prefix` against `bound_s` (see
    /// [`latency_stream`]).
    pub fn latency(&self, prefix: &str, bound_s: f64) -> Vec<SloSample> {
        latency_stream(&self.forest, prefix, bound_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctelemetry::SpanContext;

    #[test]
    fn stream_salts_are_distinct() {
        let ids = [STREAM_SERVE, STREAM_FOG, STREAM_PIPELINE];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(TraceId::derive(42, *a, 0), TraceId::derive(42, *b, 0));
            }
        }
    }

    #[test]
    fn analysis_harvests_bad_marks_and_checks_completeness() {
        let t = Telemetry::shared();
        let h = t.handle();
        let ok = SpanContext::root(TraceId::derive(42, STREAM_SERVE, 0));
        let shed = TraceId::derive(42, STREAM_SERVE, 1);
        h.span_in(
            "scserve",
            "request/get",
            SimTime::ZERO,
            SimTime::from_micros(100),
            ok,
        );
        h.span_in(
            "scserve",
            "request/shed",
            SimTime::from_micros(50),
            SimTime::from_micros(50),
            SpanContext::root(shed),
        );
        h.event(
            "scserve",
            "request/shed",
            SimTime::from_micros(50),
            format_args!("trace={}", shed.as_hex()),
        );

        let a = TraceAnalysis::new(&t);
        assert!(a.forest.traces.iter().all(|t| t.is_complete()));
        assert_eq!(
            a.bad_marks,
            vec![("request/shed", shed, SimTime::from_micros(50))]
        );
        let avail = a.availability("request/");
        assert_eq!(avail.len(), 2);
        assert_eq!(avail.iter().filter(|s| s.good).count(), 1);
        let lat = a.latency("request/", 1.0);
        assert_eq!(lat.len(), 2);
    }

    /// Serving and fog sharing one recorder: only each layer's own loss
    /// markers are bad samples, and a reroute is not a loss.
    #[test]
    fn availability_counts_only_its_own_loss_markers() {
        let t = Telemetry::shared();
        let h = t.handle();
        let us = SimTime::from_micros;
        let served = SpanContext::root(TraceId::derive(42, STREAM_SERVE, 0));
        h.span_in("scserve", "request/get", us(0), us(100), served);

        let rerouted = SpanContext::root(TraceId::derive(42, STREAM_FOG, 0));
        let tag = format!("trace={}", rerouted.trace.as_hex());
        h.event(
            "scfog",
            "reroute",
            us(20),
            format_args!("{tag} node=1 alt=2"),
        );
        h.event("scfog", "requeue", us(30), format_args!("{tag} node=2"));
        h.event("scfog", "degraded", us(40), format_args!("{tag} node=3"));
        h.span_in("scfog", "job/0", us(0), us(500), rerouted);

        let lost = SpanContext::root(TraceId::derive(42, STREAM_FOG, 1));
        h.span_in("scfog", "job/1", us(0), us(300), lost);
        h.event(
            "scfog",
            "job/lost",
            us(300),
            format_args!("trace={}", lost.trace.as_hex()),
        );

        let a = TraceAnalysis::new(&t);
        let tally = |samples: Vec<SloSample>| {
            let good = samples.iter().filter(|s| s.good).count();
            (good, samples.len() - good)
        };
        assert_eq!(tally(a.availability("request/")), (1, 0));
        assert_eq!(tally(a.availability("job/")), (1, 1));
    }
}
