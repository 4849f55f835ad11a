//! Spans recorded from the benchmark's own files, around calls into the
//! layers' public functions.
//!
//! A traced run is a tree three levels deep: one root span, *phases*
//! under it (a demand window, a pipeline stage, a batch), and under each
//! phase one span per operation kind. The root only groups the phases:
//! what the benchmark does between two phases (an untraced comparison
//! run, say) is not part of the traced work, so the traced wall is the
//! sum of the phases. The hot loops call a layer tens of
//! thousands of times per phase, so calls are not stored one by one: a
//! [`Tracer`] adds each call's duration to a per-operation total and, when
//! the phase ends, writes one span per operation carrying the call count
//! and the summed busy time. The cost per call is two `Instant::now()`.
//!
//! A layer's self time is its spans' duration minus what their child
//! spans cover; phase spans belong to the `harness` layer, so their self
//! time is exactly the driver's own glue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer that owns phase spans.
pub const HARNESS: &str = "harness";

/// One kind of call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct OpDef {
    /// Crate the call goes into.
    pub layer: &'static str,
    /// What is called.
    pub name: &'static str,
}

/// `{name, layer, start_ns, end_ns, parent, window}` plus the number of
/// calls the span stands for (1 for roots and phases).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub window: Option<u32>,
    pub calls: u64,
}

/// What a driver needs from tracing; [`Off`] compiles to nothing, so the
/// same driver code gives the untraced and the traced wall-clock.
pub trait Probe {
    /// Times one call of operation `op` (an index into the op table).
    fn time<R>(&mut self, op: usize, f: impl FnOnce() -> R) -> R;
    /// Opens a phase under the root.
    fn begin(&mut self, name: &'static str, window: Option<u32>);
    /// Closes the open phase and writes its per-operation spans.
    fn end(&mut self);
}

/// Tracing off.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn time<R>(&mut self, _op: usize, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn begin(&mut self, _name: &'static str, _window: Option<u32>) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// Tracing on: see the module docs.
pub struct Tracer {
    epoch: Instant,
    ops: &'static [OpDef],
    /// `(calls, busy_ns)` per op inside the open phase.
    phase_agg: Vec<(u64, u64)>,
    /// `(calls, busy_ns)` per op over the whole run.
    totals: Vec<(u64, u64)>,
    spans: Vec<Span>,
    open_phase: Option<u32>,
}

impl Tracer {
    /// Starts the root span `root`; `phases` pre-sizes the span buffer so
    /// recording never reallocates mid-run.
    pub fn new(root: &'static str, ops: &'static [OpDef], phases: usize) -> Self {
        let mut spans = Vec::with_capacity(1 + phases * (ops.len() + 1));
        spans.push(Span {
            name: root,
            layer: HARNESS,
            start_ns: 0,
            end_ns: 0,
            parent: None,
            window: None,
            calls: 1,
        });
        Tracer {
            epoch: Instant::now(),
            ops,
            phase_agg: vec![(0, 0); ops.len()],
            totals: vec![(0, 0); ops.len()],
            spans,
            open_phase: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes the root span and returns the finished trace.
    pub fn finish(mut self) -> Trace {
        assert!(self.open_phase.is_none(), "phase left open");
        self.spans[0].end_ns = self.now_ns();
        Trace {
            ops: self.ops,
            totals: self.totals,
            spans: self.spans,
        }
    }
}

impl Probe for Tracer {
    #[inline]
    fn time<R>(&mut self, op: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let slot = &mut self.phase_agg[op];
        slot.0 += 1;
        slot.1 += ns;
        out
    }

    fn begin(&mut self, name: &'static str, window: Option<u32>) {
        assert!(self.open_phase.is_none(), "phases do not nest");
        self.open_phase = Some(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer: HARNESS,
            start_ns,
            end_ns: start_ns,
            parent: Some(0),
            window,
            calls: 1,
        });
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let phase = self.open_phase.take().expect("no phase open");
        let (start_ns, window) = {
            let p = &mut self.spans[phase as usize];
            p.end_ns = end_ns;
            (p.start_ns, p.window)
        };
        // Per-operation spans are laid end to end from the phase's start:
        // their durations are measured, their positions are not.
        let mut cursor = start_ns;
        for (i, agg) in self.phase_agg.iter_mut().enumerate() {
            let (calls, ns) = std::mem::take(agg);
            if calls == 0 {
                continue;
            }
            self.totals[i].0 += calls;
            self.totals[i].1 += ns;
            self.spans.push(Span {
                name: self.ops[i].name,
                layer: self.ops[i].layer,
                start_ns: cursor,
                end_ns: cursor + ns,
                parent: Some(phase),
                window,
                calls,
            });
            cursor += ns;
        }
    }
}

/// A finished traced run.
pub struct Trace {
    ops: &'static [OpDef],
    totals: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

impl Trace {
    /// Every span, root first.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The traced wall: the phases' durations, summed.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Calls of operation `op` over the run.
    pub fn calls(&self, op: usize) -> u64 {
        self.totals[op].0
    }

    /// Busy nanoseconds inside operation `op` over the run.
    pub fn busy_ns(&self, op: usize) -> u64 {
        self.totals[op].1
    }

    /// Busy time ÷ calls of `op`, 0 when it was never called.
    pub fn ns_per_call(&self, op: usize) -> f64 {
        per(self.busy_ns(op) as f64, self.calls(op) as f64)
    }

    /// Self time per layer: each span's duration minus its children's.
    /// The values sum to [`Trace::wall_ns`] exactly.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent.filter(|&p| p != 0) {
                own[p as usize] = own[p as usize]
                    .checked_sub(s.end_ns - s.start_ns)
                    .expect("children fit inside their parent");
            }
        }
        let mut by_layer = BTreeMap::from([(HARNESS, 0)]);
        for op in self.ops {
            by_layer.insert(op.layer, 0);
        }
        // The root groups; it has no time of its own.
        for (s, ns) in self.spans.iter().zip(own).skip(1) {
            *by_layer.entry(s.layer).or_insert(0) += ns;
        }
        by_layer
    }

    /// Self-time share of the wall per layer, checked to sum to 1.
    pub fn shares(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let wall = self.wall_ns() as f64;
        let shares: BTreeMap<_, _> = self
            .self_ns_by_layer()
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / wall))
            .collect();
        let sum: f64 = shares.values().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("layer shares sum to {sum}, not 1"));
        }
        Ok(shares)
    }

    /// The trace as Chrome `trace_event` JSON (complete events, `ts`/`dur`
    /// in microseconds; exact nanoseconds, parent and window in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 200);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\
                 \"window\":{},\"calls\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                opt(s.parent),
                opt(s.window),
                s.calls,
                s.start_ns,
                s.end_ns,
            )
            .expect("writing to a String");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `num / den`, 0 when `den` is 0 (a layer the workload never called).
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static OPS: [OpDef; 3] = [
        OpDef {
            layer: "a",
            name: "a.x",
        },
        OpDef {
            layer: "a",
            name: "a.y",
        },
        OpDef {
            layer: "b",
            name: "b.z",
        },
    ];

    fn spin() {
        let start = Instant::now();
        while start.elapsed().as_micros() < 200 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_times_sum_to_the_traced_wall_and_shares_to_one() {
        let mut t = Tracer::new("root", &OPS, 4);
        for w in 0..4 {
            t.begin("phase", Some(w));
            t.time(0, spin);
            t.time(2, spin);
            t.time(2, spin);
            spin(); // glue
            t.end();
            spin(); // between phases: not traced work
        }
        let trace = t.finish();
        let by_layer = trace.self_ns_by_layer();
        assert_eq!(by_layer.values().sum::<u64>(), trace.wall_ns());
        assert_eq!(by_layer["a"], trace.busy_ns(0));
        assert_eq!(by_layer["b"], trace.busy_ns(2));
        assert!(
            by_layer[HARNESS] >= 4 * 200_000,
            "glue is the phases' self time"
        );
        assert_eq!((trace.calls(0), trace.calls(1), trace.calls(2)), (4, 0, 8));
        let shares = trace.shares().expect("shares sum to 1");
        assert!((shares.values().sum::<f64>() - 1.0).abs() <= 1e-9);
        // Four phases, two operation spans each, under one root.
        assert_eq!(trace.spans().len(), 1 + 4 * 3);
        assert!(trace.spans()[1..].iter().all(|s| s.parent.is_some()));
    }

    #[test]
    fn chrome_json_parses_and_keeps_every_span() {
        let mut t = Tracer::new("root", &OPS, 1);
        t.begin("phase", None);
        t.time(1, spin);
        t.end();
        let trace = t.finish();
        let doc: serde_json::Value =
            serde_json::from_str(&trace.to_chrome_json()).expect("valid JSON");
        let events = doc["traceEvents"].as_array().expect("an array");
        assert_eq!(events.len(), trace.spans().len());
        assert_eq!(events[2]["name"].as_str(), Some("a.y"));
        assert_eq!(events[2]["args"]["parent"].as_u64(), Some(1));
        assert!(events[1]["args"]["window"].is_null());
    }

    #[test]
    fn off_probe_runs_the_call() {
        assert_eq!(Off.time(0, || 7), 7);
    }
}
