//! [`ProfileReport`]: the deterministic aggregation of per-kernel work,
//! with folded-stack and table renderings.

use sctelemetry::WorkDelta;

/// Which [`WorkDelta`] dimension weights a folded-stack export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostDimension {
    /// Weight stacks by floating-point operations.
    Flops,
    /// Weight stacks by items processed.
    Items,
}

/// Accumulated work of one named kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Kernel name, `/`-separated (e.g. `"compute/kmeans/assign"`).
    pub name: String,
    /// Number of `record_work` calls attributed to this kernel. Call
    /// counts depend on how the schedule chunks work (unlike the summed
    /// work itself), so only the work is compared across thread counts.
    pub calls: u64,
    /// Summed work.
    pub work: WorkDelta,
}

impl KernelProfile {
    /// Combined self-cost used for ranking: flops + bytes + items.
    /// Kernels that move data or process items without arithmetic still
    /// rank above untouched ones.
    fn cost(&self) -> u64 {
        self.work
            .flops
            .saturating_add(self.work.bytes)
            .saturating_add(self.work.items)
    }

    /// GFLOP/s over `elapsed_s` seconds.
    pub fn gflops_per_s(&self, elapsed_s: f64) -> f64 {
        if elapsed_s > 0.0 {
            self.work.flops as f64 / elapsed_s / 1e9
        } else {
            0.0
        }
    }
}

/// Snapshot of a [`crate::Profiler`]: every kernel (sorted by name), the
/// exact integer totals, and an optional elapsed time for rates.
///
/// The integer core (kernels, totals, percentages derived from them) is
/// byte-identical for identical seeds at any thread count. `elapsed_s`
/// is whatever the caller attaches: wall-clock seconds in benches
/// (nondeterministic — keep out of goldens) or simulated seconds in
/// golden artifacts (deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Per-kernel profiles, sorted by kernel name.
    pub kernels: Vec<KernelProfile>,
    /// Exact sum of every kernel's work.
    pub total: WorkDelta,
    /// Exact sum of every kernel's call count.
    pub total_calls: u64,
    /// Elapsed seconds rates are computed over, when attached.
    pub elapsed_s: Option<f64>,
}

impl ProfileReport {
    /// Attaches an elapsed time, enabling the GFLOP/s column of
    /// [`ProfileReport::render_table`].
    pub fn with_elapsed(mut self, elapsed_s: f64) -> Self {
        self.elapsed_s = Some(elapsed_s);
        self
    }

    /// Looks up one kernel by exact name.
    pub fn kernel(&self, name: &str) -> Option<&KernelProfile> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Percentage of total combined cost attributed to `k` (0 when the
    /// report is empty). Derived purely from the integer core.
    pub fn pct_cost(&self, k: &KernelProfile) -> f64 {
        let total = self
            .total
            .flops
            .saturating_add(self.total.bytes)
            .saturating_add(self.total.items);
        if total == 0 {
            0.0
        } else {
            k.cost() as f64 * 100.0 / total as f64
        }
    }

    /// The `n` costliest kernels, by combined cost descending, name
    /// ascending on ties — a deterministic ranking.
    pub fn top_by_cost(&self, n: usize) -> Vec<&KernelProfile> {
        let mut v: Vec<&KernelProfile> = self.kernels.iter().collect();
        v.sort_by(|a, b| b.cost().cmp(&a.cost()).then_with(|| a.name.cmp(&b.name)));
        v.truncate(n);
        v
    }

    /// Folded-stack "cost flamegraph" export, in scobserve's
    /// `folded_stacks` format: one `frame;frame;... weight` line per
    /// kernel, `/` in kernel names split into stack frames, lines sorted
    /// lexicographically (kernels are already name-sorted and the `/`→`;`
    /// mapping is monotonic), zero-weight lines dropped. Feed to any
    /// flamegraph renderer.
    pub fn folded(&self, dim: CostDimension) -> String {
        let mut out = String::new();
        for k in &self.kernels {
            let w = match dim {
                CostDimension::Flops => k.work.flops,
                CostDimension::Items => k.work.items,
            };
            if w > 0 {
                out.push_str(&k.name.replace('/', ";"));
                out.push(' ');
                out.push_str(&w.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Plain-text table of the top `n` kernels, for bench output and
    /// EXPERIMENTS.md. Rates appear when an elapsed time is attached.
    pub fn render_table(&self, n: usize) -> String {
        let mut out = String::new();
        match self.elapsed_s {
            Some(_) => out.push_str(&format!(
                "{:<32} {:>10} {:>14} {:>14} {:>7} {:>10}\n",
                "kernel", "calls", "flops", "bytes", "pct", "GFLOP/s"
            )),
            None => out.push_str(&format!(
                "{:<32} {:>10} {:>14} {:>14} {:>7}\n",
                "kernel", "calls", "flops", "bytes", "pct"
            )),
        }
        for k in self.top_by_cost(n) {
            match self.elapsed_s {
                Some(e) => out.push_str(&format!(
                    "{:<32} {:>10} {:>14} {:>14} {:>6.2}% {:>10.3}\n",
                    k.name,
                    k.calls,
                    k.work.flops,
                    k.work.bytes,
                    self.pct_cost(k),
                    k.gflops_per_s(e)
                )),
                None => out.push_str(&format!(
                    "{:<32} {:>10} {:>14} {:>14} {:>6.2}%\n",
                    k.name,
                    k.calls,
                    k.work.flops,
                    k.work.bytes,
                    self.pct_cost(k)
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profiler;

    fn sample() -> ProfileReport {
        let p = Profiler::shared();
        let h = p.handle();
        h.work("neural/matmul", WorkDelta::flops(900).with_bytes(100));
        h.work("pipeline/ingest", WorkDelta::items(50));
        h.work("compute/kmeans/assign", WorkDelta::flops(100));
        p.report()
    }

    #[test]
    fn totals_and_ranking() {
        let r = sample();
        assert_eq!(r.total.flops, 1000);
        assert_eq!(r.total.items, 50);
        let top = r.top_by_cost(2);
        assert_eq!(top[0].name, "neural/matmul");
        assert_eq!(top[1].name, "compute/kmeans/assign");
        assert!((r.pct_cost(top[0]) - 1000.0 * 100.0 / 1150.0).abs() < 1e-9);
    }

    #[test]
    fn folded_matches_observe_format() {
        let r = sample();
        let f = r.folded(CostDimension::Flops);
        assert_eq!(f, "compute;kmeans;assign 100\nneural;matmul 900\n");
        // Lines sorted, zero-weight kernels dropped.
        assert!(!f.contains("ingest"));
        let items = r.folded(CostDimension::Items);
        assert_eq!(items, "pipeline;ingest 50\n");
    }

    #[test]
    fn rates_need_an_elapsed_time() {
        let r = sample();
        assert_eq!(r.elapsed_s, None);
        assert!(!r.render_table(10).contains("GFLOP/s"));
        let k = r.kernel("neural/matmul").unwrap();
        assert!((k.gflops_per_s(2.0) - 900.0 / 2.0 / 1e9).abs() < 1e-18);
        assert_eq!(k.gflops_per_s(0.0), 0.0);
    }

    #[test]
    fn table_renders_top_kernels() {
        let r = sample().with_elapsed(1.0);
        let t = r.render_table(10);
        assert!(t.contains("GFLOP/s"));
        assert!(t.contains("neural/matmul"));
    }
}
