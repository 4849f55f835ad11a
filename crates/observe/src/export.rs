//! Trace exporters: Chrome `trace_event` JSON and folded-stack flamegraph
//! text. Both are byte-deterministic for a given forest — ordering never
//! depends on recording order or thread interleaving.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::tree::{TraceForest, TraceTree};

/// Renders a forest as Chrome `trace_event` JSON (the `chrome://tracing` /
/// Perfetto format): one complete (`"ph": "X"`) event per span, `ts`/`dur`
/// in microseconds, causal ids as fixed-width hex strings under `args`.
///
/// Traces appear in `(root start, trace id)` order; within a trace, spans
/// appear in depth-first order, so the output is byte-identical across
/// runs and thread counts. Each trace gets its own `pid`; spans render on
/// `tid` 0 of that process.
pub fn chrome_trace(forest: &TraceForest) -> Value {
    let mut events = Vec::new();
    for (pid, tree) in forest.traces.iter().enumerate() {
        let mut stack: Vec<usize> = tree.roots.iter().rev().copied().collect();
        while let Some(idx) = stack.pop() {
            let node = &tree.spans[idx];
            let ctx = node.ctx();
            let mut args = Map::new();
            args.insert("trace".into(), Value::String(ctx.trace.as_hex()));
            args.insert("span".into(), Value::String(ctx.span.as_hex()));
            args.insert(
                "parent".into(),
                match ctx.parent {
                    Some(p) => Value::String(p.as_hex()),
                    None => Value::Null,
                },
            );
            events.push(json!({
                "name": node.record.name,
                "cat": node.record.target,
                "ph": "X",
                "ts": node.record.start.as_micros(),
                "dur": node.record.end.saturating_since(node.record.start).as_micros(),
                "pid": pid,
                "tid": 0,
                "args": Value::Object(args),
            }));
            for &c in node.children.iter().rev() {
                stack.push(c);
            }
        }
    }
    json!({ "traceEvents": events })
}

/// Renders a forest as folded-stack flamegraph text (`flamegraph.pl` /
/// inferno input): one `frame;frame;... weight` line per distinct stack,
/// weighted by **self time** in microseconds, aggregated across all traces
/// and sorted lexicographically. Frames are `target:name`.
pub fn folded_stacks(forest: &TraceForest) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for tree in &forest.traces {
        for &root in &tree.roots {
            fold(tree, root, String::new(), &mut weights);
        }
    }
    let mut out = String::new();
    for (stack, w) in weights {
        if w > 0 {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
    }
    out
}

fn fold(tree: &TraceTree, idx: usize, prefix: String, weights: &mut BTreeMap<String, u64>) {
    let node = &tree.spans[idx];
    let frame = format!("{}:{}", node.record.target, node.record.name);
    let stack = if prefix.is_empty() {
        frame
    } else {
        format!("{prefix};{frame}")
    };
    let total = node
        .record
        .end
        .saturating_since(node.record.start)
        .as_micros();
    let child_total: u64 = node
        .children
        .iter()
        .map(|&c| {
            let ch = &tree.spans[c].record;
            ch.end.saturating_since(ch.start).as_micros()
        })
        .sum();
    *weights.entry(stack.clone()).or_insert(0) += total.saturating_sub(child_total);
    for &c in &node.children {
        fold(tree, c, stack.clone(), weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctelemetry::{SpanContext, Telemetry, TraceId};
    use simclock::SimTime;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn forest() -> TraceForest {
        let t = Telemetry::shared();
        let h = t.handle();
        for i in 0..2u64 {
            let root = SpanContext::root(TraceId::derive(11, 1, i));
            let base = ms(10 * i);
            let mut g = h.span_guard("srv", "request/get", base, root);
            g.child_span("queue", base, base + simclock::SimDuration::from_millis(2));
            g.child_span(
                "backend",
                base + simclock::SimDuration::from_millis(2),
                base + simclock::SimDuration::from_millis(5),
            );
            g.finish(base + simclock::SimDuration::from_millis(6));
        }
        TraceForest::from_records(&t.trace())
    }

    #[test]
    fn chrome_trace_emits_complete_events_with_hex_ids() {
        let f = forest();
        let v = chrome_trace(&f);
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 6);
        // Depth-first: root precedes its children; per-trace pid.
        assert_eq!(events[0]["name"], "request/get");
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["pid"], 0);
        assert_eq!(events[3]["pid"], 1);
        assert_eq!(events[0]["args"]["parent"], Value::Null);
        let root_span = events[0]["args"]["span"].as_str().unwrap();
        assert_eq!(root_span.len(), 16);
        assert_eq!(events[1]["args"]["parent"].as_str().unwrap(), root_span);
        assert_eq!(events[0]["ts"].as_u64().unwrap(), 0);
        assert_eq!(events[0]["dur"].as_u64().unwrap(), 6_000);
    }

    #[test]
    fn folded_stacks_weight_self_time_and_aggregate() {
        let f = forest();
        let text = folded_stacks(&f);
        // Two identical traces aggregate: root self = 6-5 = 1ms each.
        assert!(text.contains("srv:request/get 2000\n"));
        assert!(text.contains("srv:request/get;srv:queue 4000\n"));
        assert!(text.contains("srv:request/get;srv:backend 6000\n"));
        // Lines sorted lexicographically.
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn exports_are_deterministic() {
        let a = serde_json::to_string(&chrome_trace(&forest())).unwrap();
        let b = serde_json::to_string(&chrome_trace(&forest())).unwrap();
        assert_eq!(a, b);
        assert_eq!(folded_stacks(&forest()), folded_stacks(&forest()));
    }
}
