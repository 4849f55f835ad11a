//! Span-tree assembly: flat [`TraceRecord`]s → per-trace trees.
//!
//! Only spans carrying a [`SpanContext`] participate — context-less spans
//! (system annotations like fault-outage windows) are collected separately
//! in [`TraceForest::unattributed`] and never make a trace incomplete.
//! Within a trace, children link to parents by span id; a span whose
//! parent id is absent from the trace is an **orphan**, which the
//! acceptance suite requires never to happen for request traces.

use std::collections::BTreeMap;

use sctelemetry::{SpanContext, SpanId, SpanRecord, TraceId, TraceRecord};
use simclock::SimTime;

/// One span plus the indices of its children (into [`TraceTree::spans`]).
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The recorded span. Its `ctx` is always `Some` inside a tree.
    pub record: SpanRecord,
    /// Child indices, sorted by `(start, name, span id)`.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// The span's causal context.
    pub fn ctx(&self) -> SpanContext {
        self.record.ctx.expect("tree nodes always carry context")
    }
}

/// All spans of one trace, linked into a tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id.
    pub trace: TraceId,
    /// Arena of nodes; indices are stable handles.
    pub spans: Vec<SpanNode>,
    /// Indices of spans with no parent (a complete trace has exactly one).
    pub roots: Vec<usize>,
    /// Indices of spans whose recorded parent id is missing from the trace.
    pub orphans: Vec<usize>,
}

impl TraceTree {
    /// The single root span, if the trace is well-formed.
    pub fn root(&self) -> Option<&SpanNode> {
        match self.roots.as_slice() {
            [r] => Some(&self.spans[*r]),
            _ => None,
        }
    }

    /// Whether the trace has exactly one root and no orphans.
    pub fn is_complete(&self) -> bool {
        self.roots.len() == 1 && self.orphans.is_empty()
    }

    /// Root start time (trace start); `SimTime::ZERO` without a root.
    fn start(&self) -> SimTime {
        self.root().map(|r| r.record.start).unwrap_or(SimTime::ZERO)
    }
}

/// Every trace assembled from one recorder, plus the context-less spans.
#[derive(Debug, Clone, Default)]
pub struct TraceForest {
    /// Traces in deterministic `(root start, trace id)` order.
    pub traces: Vec<TraceTree>,
    /// Spans recorded without causal context (outside any trace).
    pub unattributed: Vec<SpanRecord>,
}

impl TraceForest {
    /// Assembles trees from a flat record slice (events are ignored here;
    /// the SLO adapters consume them separately).
    pub fn from_records(records: &[TraceRecord]) -> TraceForest {
        let mut by_trace: BTreeMap<TraceId, Vec<SpanRecord>> = BTreeMap::new();
        let mut unattributed = Vec::new();
        for r in records {
            let TraceRecord::Span(s) = r else { continue };
            match s.ctx {
                Some(ctx) => by_trace.entry(ctx.trace).or_default().push(s.clone()),
                None => unattributed.push(s.clone()),
            }
        }
        let mut traces = Vec::with_capacity(by_trace.len());
        for (trace, mut spans) in by_trace {
            // Deterministic arena order regardless of recording order.
            spans.sort_by(|a, b| {
                a.start
                    .cmp(&b.start)
                    .then_with(|| a.name.cmp(&b.name))
                    .then_with(|| a.ctx.unwrap().span.0.cmp(&b.ctx.unwrap().span.0))
            });
            let index_of: BTreeMap<SpanId, usize> = spans
                .iter()
                .enumerate()
                .map(|(i, s)| (s.ctx.unwrap().span, i))
                .collect();
            let mut nodes: Vec<SpanNode> = spans
                .into_iter()
                .map(|record| SpanNode {
                    record,
                    children: Vec::new(),
                })
                .collect();
            let mut roots = Vec::new();
            let mut orphans = Vec::new();
            for i in 0..nodes.len() {
                match nodes[i].ctx().parent {
                    None => roots.push(i),
                    Some(p) => match index_of.get(&p) {
                        Some(&pi) => nodes[pi].children.push(i),
                        None => orphans.push(i),
                    },
                }
            }
            traces.push(TraceTree {
                trace,
                spans: nodes,
                roots,
                orphans,
            });
        }
        traces.sort_by(|a, b| {
            a.start()
                .cmp(&b.start())
                .then_with(|| a.trace.cmp(&b.trace))
        });
        TraceForest {
            traces,
            unattributed,
        }
    }

    /// The tree of `trace`, if recorded.
    pub fn get(&self, trace: TraceId) -> Option<&TraceTree> {
        self.traces.iter().find(|t| t.trace == trace)
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no traces were assembled.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Root spans whose name starts with `prefix`, as
    /// `(trace id, start, duration seconds)` — the raw material for
    /// exemplars and SLO streams.
    pub fn root_durations(&self, prefix: &str) -> Vec<(TraceId, SimTime, f64)> {
        self.traces
            .iter()
            .filter_map(|t| {
                let root = t.root()?;
                root.record
                    .name
                    .starts_with(prefix)
                    .then(|| (t.trace, root.record.start, root.record.duration_s()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctelemetry::Telemetry;

    fn record_demo() -> std::sync::Arc<Telemetry> {
        let t = Telemetry::shared();
        let h = t.handle();
        let root = SpanContext::root(TraceId::derive(42, 1, 0));
        let mut g = h.span_guard("srv", "request/get", SimTime::ZERO, root);
        g.child_span("queue", SimTime::ZERO, SimTime::from_millis(2));
        g.child_span("backend", SimTime::from_millis(2), SimTime::from_millis(5));
        g.finish(SimTime::from_millis(5));
        h.span("sys", "outage", SimTime::ZERO, SimTime::from_secs(1));
        t
    }

    #[test]
    fn assembles_complete_tree_and_separates_unattributed() {
        let f = TraceForest::from_records(&record_demo().trace());
        assert_eq!(f.len(), 1);
        assert_eq!(f.unattributed.len(), 1);
        let tree = &f.traces[0];
        assert!(tree.is_complete());
        let root = tree.root().unwrap();
        assert_eq!(root.record.name, "request/get");
        assert_eq!(root.children.len(), 2);
        assert!((tree.root().unwrap().record.duration_s() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn missing_parent_is_an_orphan() {
        let t = Telemetry::shared();
        let h = t.handle();
        let root = SpanContext::root(TraceId::derive(1, 1, 0));
        // Record a grandchild whose parent (the child) is never recorded.
        let child = root.child(0);
        h.span_in("s", "root", SimTime::ZERO, SimTime::from_millis(1), root);
        h.span_in(
            "s",
            "grandchild",
            SimTime::ZERO,
            SimTime::from_millis(1),
            child.child(0),
        );
        let f = TraceForest::from_records(&t.trace());
        assert_eq!(f.traces[0].orphans.len(), 1);
        assert!(!f.traces[0].is_complete());
    }

    #[test]
    fn root_durations_filters_by_prefix() {
        let f = TraceForest::from_records(&record_demo().trace());
        assert_eq!(f.root_durations("request/").len(), 1);
        assert!(f.root_durations("job/").is_empty());
    }
}
