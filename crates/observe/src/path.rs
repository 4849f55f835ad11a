//! Critical-path extraction and latency exemplars.
//!
//! The critical path of a request is the chain of spans that actually
//! bounds its latency: walking backward from the root's end, at each point
//! the latest-finishing child that ends at or before the cursor is on the
//! path, and gaps not covered by any child are the parent's own work
//! (*self time*). Segment durations partition the root interval exactly,
//! so their sum equals the recorded request latency to the microsecond —
//! an invariant the test suite checks on every trace.

use sctelemetry::TraceId;
use simclock::{SimDuration, SimTime};

use crate::tree::{TraceForest, TraceTree};

/// What a [`PathSegment`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Time inside a child span on the critical path.
    Span,
    /// Time attributed to the enclosing span itself (no child covers it).
    SelfTime,
}

/// One segment of a critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Subsystem of the span the segment belongs to.
    pub target: String,
    /// Name of the span the segment belongs to (the parent for
    /// [`SegmentKind::SelfTime`] segments).
    pub name: String,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
    /// Span time or parent self time.
    pub kind: SegmentKind,
}

impl PathSegment {
    /// Segment duration.
    fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The critical path of one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The trace this path was extracted from.
    pub trace: TraceId,
    /// Segments in time order; together they cover the root interval
    /// exactly (no gaps, no overlap).
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// Total path duration — equals the root span's duration by
    /// construction.
    pub fn total(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Compact one-line rendering:
    /// `name 1.2ms -> (self) 0.3ms -> name 0.5ms`.
    pub fn render(&self) -> String {
        self.segments
            .iter()
            .map(|s| {
                let label = match s.kind {
                    SegmentKind::Span => s.name.as_str(),
                    SegmentKind::SelfTime => "(self)",
                };
                format!("{label} {}us", s.duration().as_micros())
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Extracts the critical path of `tree`. Returns `None` when the tree has
/// no single root.
pub fn critical_path(tree: &TraceTree) -> Option<CriticalPath> {
    let root_idx = match tree.roots.as_slice() {
        [r] => *r,
        _ => return None,
    };
    let mut segments = Vec::new();
    descend(tree, root_idx, &mut segments);
    Some(CriticalPath {
        trace: tree.trace,
        segments,
    })
}

/// Appends the critical-path segments of span `idx` (covering exactly its
/// `[start, end]` interval) to `out`, in time order.
fn descend(tree: &TraceTree, idx: usize, out: &mut Vec<PathSegment>) {
    let node = &tree.spans[idx];
    let (start, end) = (node.record.start, node.record.end);

    // Backward scan: pick the latest-ending child fitting before the
    // cursor; ties break toward later start, then larger span id, so the
    // choice is deterministic.
    let mut chain: Vec<usize> = Vec::new();
    let mut cursor = end;
    loop {
        let next = node
            .children
            .iter()
            .map(|&c| &tree.spans[c])
            .enumerate()
            .filter(|(_, ch)| {
                // Zero-length children carry no latency and would stall the
                // backward cursor; they never join the path.
                ch.record.end <= cursor
                    && ch.record.start >= start
                    && ch.record.end > ch.record.start
            })
            .max_by(|(_, a), (_, b)| {
                a.record
                    .end
                    .cmp(&b.record.end)
                    .then_with(|| a.record.start.cmp(&b.record.start))
                    .then_with(|| a.ctx().span.0.cmp(&b.ctx().span.0))
            })
            .map(|(i, _)| node.children[i]);
        match next {
            Some(ci) => {
                cursor = tree.spans[ci].record.start;
                chain.push(ci);
            }
            None => break,
        }
    }
    chain.reverse();

    // Forward emission: child segments (recursing) with parent self-time
    // filling every gap.
    let mut at = start;
    for ci in chain {
        let ch = &tree.spans[ci];
        if ch.record.start > at {
            out.push(PathSegment {
                target: node.record.target.clone(),
                name: node.record.name.clone(),
                start: at,
                end: ch.record.start,
                kind: SegmentKind::SelfTime,
            });
        }
        descend(tree, ci, out);
        at = ch.record.end;
    }
    if end > at || (out.is_empty() && end == at) {
        out.push(PathSegment {
            target: node.record.target.clone(),
            name: node.record.name.clone(),
            start: at,
            end,
            kind: if at == start {
                SegmentKind::Span
            } else {
                SegmentKind::SelfTime
            },
        });
    }
}

/// A latency exemplar: an actual trace standing behind a percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Percentile label (`"p50"`, `"p99"`, `"max"`).
    pub label: &'static str,
    /// The exemplar trace.
    pub trace: TraceId,
    /// Its recorded value (seconds for latency streams).
    pub value: f64,
}

/// Picks p50/p99/max exemplars from `(trace, value)` pairs using the
/// nearest-rank method; ties on value break toward the smaller trace id.
/// Empty input yields no exemplars.
pub fn exemplars(mut samples: Vec<(TraceId, f64)>) -> Vec<Exemplar> {
    if samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let rank = |p: f64| {
        let n = samples.len();
        ((p * n as f64).ceil() as usize).clamp(1, n) - 1
    };
    vec![
        Exemplar {
            label: "p50",
            trace: samples[rank(0.50)].0,
            value: samples[rank(0.50)].1,
        },
        Exemplar {
            label: "p99",
            trace: samples[rank(0.99)].0,
            value: samples[rank(0.99)].1,
        },
        Exemplar {
            label: "max",
            trace: samples[samples.len() - 1].0,
            value: samples[samples.len() - 1].1,
        },
    ]
}

/// Exemplar critical paths of a forest's request population: p50/p99/max
/// root durations of spans named under `prefix`, each paired with its
/// extracted critical path.
pub fn exemplar_paths(forest: &TraceForest, prefix: &str) -> Vec<(Exemplar, Option<CriticalPath>)> {
    let samples = forest
        .root_durations(prefix)
        .into_iter()
        .map(|(trace, _, d)| (trace, d))
        .collect();
    exemplars(samples)
        .into_iter()
        .map(|e| {
            let path = forest.get(e.trace).and_then(critical_path);
            (e, path)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctelemetry::{SpanContext, Telemetry};

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// root [0,10]; queue [0,2]; backend [2,9] with forward [3,8];
    /// overlapping speculative child [1,5] must lose to backend.
    fn build() -> TraceForest {
        let t = Telemetry::shared();
        let h = t.handle();
        let root = SpanContext::root(TraceId::derive(7, 1, 0));
        let mut g = h.span_guard("srv", "request/get", ms(0), root);
        g.child_span("queue", ms(0), ms(2));
        let backend = g.child_ctx();
        g.child_span("speculative", ms(1), ms(5));
        h.span_in("srv", "backend", ms(2), ms(9), backend);
        h.span_in("srv", "forward", ms(3), ms(8), backend.child(0));
        g.finish(ms(10));
        TraceForest::from_records(&t.trace())
    }

    #[test]
    fn path_partitions_root_interval_exactly() {
        let f = build();
        let p = critical_path(&f.traces[0]).unwrap();
        assert_eq!(p.total(), SimDuration::from_millis(10));
        // Segments are contiguous and inside the root window.
        let mut at = ms(0);
        for s in &p.segments {
            assert_eq!(s.start, at);
            at = s.end;
        }
        assert_eq!(at, ms(10));
    }

    #[test]
    fn path_prefers_latest_ending_children_and_descends() {
        let f = build();
        let p = critical_path(&f.traces[0]).unwrap();
        let names: Vec<&str> = p.segments.iter().map(|s| s.name.as_str()).collect();
        let kinds: Vec<SegmentKind> = p.segments.iter().map(|s| s.kind).collect();
        // queue [0,2] -> backend self [2,3] -> forward [3,8] ->
        // backend self [8,9] -> root self [9,10]; speculative excluded.
        assert_eq!(
            names,
            ["queue", "backend", "forward", "backend", "request/get"]
        );
        assert_eq!(
            kinds,
            [
                SegmentKind::Span,
                SegmentKind::SelfTime,
                SegmentKind::Span,
                SegmentKind::SelfTime,
                SegmentKind::SelfTime
            ]
        );
        assert!(p.render().contains("forward 5000us"));
    }

    #[test]
    fn childless_root_is_single_span_segment() {
        let t = Telemetry::shared();
        let h = t.handle();
        h.span_in(
            "srv",
            "request/put",
            ms(0),
            ms(1),
            SpanContext::root(TraceId::derive(1, 1, 0)),
        );
        let f = TraceForest::from_records(&t.trace());
        let p = critical_path(&f.traces[0]).unwrap();
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].kind, SegmentKind::Span);
        assert_eq!(p.total(), SimDuration::from_millis(1));
    }

    #[test]
    fn zero_length_root_yields_zero_total() {
        let t = Telemetry::shared();
        let h = t.handle();
        h.span_in(
            "srv",
            "request/shed",
            ms(4),
            ms(4),
            SpanContext::root(TraceId::derive(2, 1, 0)),
        );
        let f = TraceForest::from_records(&t.trace());
        let p = critical_path(&f.traces[0]).unwrap();
        assert_eq!(p.total(), SimDuration::ZERO);
    }

    #[test]
    fn exemplars_use_nearest_rank() {
        let samples: Vec<(TraceId, f64)> = (0..100).map(|i| (TraceId(i), (i + 1) as f64)).collect();
        let ex = exemplars(samples);
        assert_eq!(ex[0].label, "p50");
        assert_eq!(ex[0].value, 50.0);
        assert_eq!(ex[1].label, "p99");
        assert_eq!(ex[1].value, 99.0);
        assert_eq!(ex[2].label, "max");
        assert_eq!(ex[2].value, 100.0);
        assert!(exemplars(Vec::new()).is_empty());
    }

    #[test]
    fn exemplar_paths_pair_percentiles_with_paths() {
        let f = build();
        let pairs = exemplar_paths(&f, "request/");
        assert_eq!(pairs.len(), 3);
        for (e, p) in &pairs {
            assert_eq!(e.trace, f.traces[0].trace);
            assert!(p.is_some());
        }
    }
}
