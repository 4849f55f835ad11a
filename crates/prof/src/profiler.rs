//! The [`Profiler`] recorder decorator: aggregates per-kernel work while
//! forwarding every other telemetry signal to an optional inner recorder.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use sctelemetry::{
    EventRecord, MetricError, MetricsRegistry, Recorder, SpanRecord, TelemetryHandle, WorkDelta,
};

use crate::report::{KernelProfile, ProfileReport};

#[derive(Debug, Default, Clone, Copy)]
struct KernelCell {
    calls: u64,
    work: WorkDelta,
}

/// A [`Recorder`] decorator that captures [`WorkDelta`]s per kernel.
///
/// Wrap the run's real recorder (e.g. [`sctelemetry::Telemetry`]) with
/// [`Profiler::shared_wrapping`] so metrics, traces, *and* work all flow
/// through one [`TelemetryHandle`]; or use [`Profiler::shared`] alone
/// when only work accounting is wanted.
///
/// Aggregation is per-kernel integer addition under one lock, so totals
/// are independent of thread interleaving: the same seed produces the
/// same [`ProfileReport`] at any `SCPAR_THREADS`.
#[derive(Default)]
pub struct Profiler {
    inner: Option<Arc<dyn Recorder>>,
    kernels: Mutex<BTreeMap<String, KernelCell>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("forwarding", &self.inner.is_some())
            .field(
                "kernels",
                &self.kernels.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}

impl Profiler {
    /// A profiler forwarding non-work signals (and work) to `inner`.
    fn wrapping(inner: Arc<dyn Recorder>) -> Self {
        Profiler {
            inner: Some(inner),
            kernels: Mutex::new(BTreeMap::new()),
        }
    }

    /// A standalone profiler (work is captured, other signals dropped),
    /// wrapped in `Arc`, ready for handles.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A profiler forwarding to `inner`, wrapped in `Arc`, ready for
    /// handles.
    pub fn shared_wrapping(inner: Arc<dyn Recorder>) -> Arc<Self> {
        Arc::new(Self::wrapping(inner))
    }

    /// A handle routing to this profiler.
    pub fn handle(self: &Arc<Self>) -> TelemetryHandle {
        TelemetryHandle::new(self.clone() as Arc<dyn Recorder>)
    }

    /// Snapshot of everything recorded so far, kernels sorted by name.
    pub fn report(&self) -> ProfileReport {
        let map = self.kernels.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = WorkDelta::default();
        let mut total_calls = 0u64;
        let kernels = map
            .iter()
            .map(|(name, cell)| {
                total += cell.work;
                total_calls += cell.calls;
                KernelProfile {
                    name: name.clone(),
                    calls: cell.calls,
                    work: cell.work,
                }
            })
            .collect();
        ProfileReport {
            kernels,
            total,
            total_calls,
            elapsed_s: None,
        }
    }

    /// Publishes accumulated work as the `smartcity_prof_*` counter
    /// family into `registry`:
    ///
    /// - `smartcity_prof_kernel_flops_total`, `..._bytes_total`,
    ///   `..._items_total`: totals across all kernels,
    /// - `smartcity_prof_kernel_<kernel>_flops_total` per kernel, with
    ///   `/` in the kernel name mapped to `_`.
    ///
    /// Call once at the end of a run — counters accumulate, so a second
    /// call would double the published totals.
    pub fn publish_metrics(&self, registry: &MetricsRegistry) -> Result<(), MetricError> {
        let report = self.report();
        let add = |name: &str, help: &str, v: u64| -> Result<(), MetricError> {
            registry
                .try_counter(name, help)?
                .as_counter()
                .expect("try_counter returned a counter")
                .add(v);
            Ok(())
        };
        add(
            "smartcity_prof_kernel_flops_total",
            "floating-point operations attributed to profiled kernels",
            report.total.flops,
        )?;
        add(
            "smartcity_prof_kernel_bytes_total",
            "bytes moved by profiled kernels",
            report.total.bytes,
        )?;
        add(
            "smartcity_prof_kernel_items_total",
            "logical items processed by profiled kernels",
            report.total.items,
        )?;
        for k in &report.kernels {
            if k.work.flops == 0 {
                continue;
            }
            let san: String = k
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            add(
                &format!("smartcity_prof_kernel_{san}_flops_total"),
                &format!("floating-point operations in kernel {}", k.name),
                k.work.flops,
            )?;
        }
        Ok(())
    }
}

impl Recorder for Profiler {
    fn record_work(&self, kernel: &str, work: WorkDelta) {
        {
            let mut map = self.kernels.lock().unwrap_or_else(|e| e.into_inner());
            let cell = map.entry(kernel.to_string()).or_default();
            cell.calls += 1;
            cell.work += work;
        }
        if let Some(r) = &self.inner {
            r.record_work(kernel, work);
        }
    }

    fn add_to_counter(&self, name: &str, help: &str, n: u64) {
        if let Some(r) = &self.inner {
            r.add_to_counter(name, help, n);
        }
    }

    fn set_gauge(&self, name: &str, help: &str, v: i64) {
        if let Some(r) = &self.inner {
            r.set_gauge(name, help, v);
        }
    }

    fn observe(&self, name: &str, help: &str, v: f64) {
        if let Some(r) = &self.inner {
            r.observe(name, help, v);
        }
    }

    fn observe_exact(&self, name: &str, help: &str, v: f64) {
        if let Some(r) = &self.inner {
            r.observe_exact(name, help, v);
        }
    }

    fn record_span(&self, span: SpanRecord) {
        if let Some(r) = &self.inner {
            r.record_span(span);
        }
    }

    fn record_event(&self, event: EventRecord) {
        if let Some(r) = &self.inner {
            r.record_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctelemetry::Telemetry;

    #[test]
    fn aggregates_per_kernel() {
        let p = Profiler::shared();
        let h = p.handle();
        h.work("a/x", WorkDelta::flops(10).with_items(1));
        h.work("a/x", WorkDelta::flops(5).with_bytes(3));
        h.work("b", WorkDelta::items(7));
        let r = p.report();
        assert_eq!(r.kernels.len(), 2);
        let ax = r.kernel("a/x").unwrap();
        assert_eq!(ax.calls, 2);
        assert_eq!(ax.work.flops, 15);
        assert_eq!(ax.work.bytes, 3);
        assert_eq!(ax.work.items, 1);
        assert_eq!(r.total.flops, 15);
        assert_eq!(r.total.items, 8);
        assert_eq!(r.total_calls, 3);
    }

    #[test]
    fn forwards_to_inner_recorder() {
        let t = Telemetry::shared();
        let p = Profiler::shared_wrapping(t.clone());
        let h = p.handle();
        h.counter_add("fwd_total", "fwd", 2);
        h.observe("fwd_seconds", "fwd", 0.1);
        h.work("k", WorkDelta::flops(1));
        assert_eq!(
            t.registry()
                .get("fwd_total")
                .unwrap()
                .as_counter()
                .unwrap()
                .get(),
            2
        );
        assert_eq!(p.report().total.flops, 1);
    }

    #[test]
    fn publishes_metric_family() {
        let t = Telemetry::shared();
        let p = Profiler::shared_wrapping(t.clone());
        let h = p.handle();
        h.work("neural/matmul", WorkDelta::flops(1000).with_bytes(64));
        h.work("pipeline/ingest", WorkDelta::items(5));
        p.publish_metrics(t.registry()).unwrap();
        let get = |n: &str| t.registry().get(n).unwrap().as_counter().unwrap().get();
        assert_eq!(get("smartcity_prof_kernel_flops_total"), 1000);
        assert_eq!(get("smartcity_prof_kernel_bytes_total"), 64);
        assert_eq!(get("smartcity_prof_kernel_items_total"), 5);
        assert_eq!(get("smartcity_prof_kernel_neural_matmul_flops_total"), 1000);
        // Zero-FLOP kernels get no per-kernel series.
        assert!(t
            .registry()
            .get("smartcity_prof_kernel_pipeline_ingest_flops_total")
            .is_none());
    }
}
