//! Metric instruments and the registry that owns them.
//!
//! Naming convention (enforced by review, documented in README):
//! `<crate>_<subsystem>_<thing>_<unit>`, e.g. `scfog_sim_queue_wait_seconds`
//! or `scstream_topic_publish_total`. Counters end in `_total`; durations
//! are `_seconds`; sizes are `_bytes`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::percentile_sorted;

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed value (e.g. queue depth, consumer lag).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// How a histogram stores observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramMode {
    /// Fixed log-scaled buckets: O(1) memory, percentile error bounded by
    /// the bucket ratio. The default for unbounded-volume instrumentation.
    Bucketed,
    /// Keeps every observation: exact percentiles, memory grows with the
    /// sample. For report-grade statistics over bounded samples.
    Exact,
}

/// Log-scaled-bucket histogram with optional exact-sample mode.
///
/// Bucketed mode uses 61 buckets whose upper bounds grow geometrically
/// from 1e-6 by 1.6× per bucket, plus an overflow bucket. Percentiles
/// are reported as the upper bound of the bucket containing the rank —
/// a value ≥ the true percentile, within one bucket ratio.
#[derive(Debug)]
pub struct Histogram {
    inner: Mutex<HistState>,
    mode: HistogramMode,
    /// Upper bounds of the finite buckets (ascending).
    bounds: Vec<f64>,
}

#[derive(Debug, Default)]
struct HistState {
    /// One count per finite bucket plus a final overflow bucket.
    counts: Vec<u64>,
    /// All observations, kept only in [`HistogramMode::Exact`].
    samples: Vec<f64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Smallest bucket bound: 1 µs when observing seconds.
const MIN_BOUND: f64 = 1.0e-6;
/// Geometric bucket growth factor (≤ ~26% relative error).
const RATIO: f64 = 1.6;
/// Bucket count: covers 1 µs .. ~3.2e6 s with ratio 1.6.
const BUCKETS: usize = 61;

impl Histogram {
    /// Bucketed histogram on the log scale.
    pub fn bucketed() -> Self {
        let mut bounds = Vec::with_capacity(BUCKETS);
        let mut b = MIN_BOUND;
        for _ in 0..BUCKETS {
            bounds.push(b);
            b *= RATIO;
        }
        Histogram {
            inner: Mutex::new(HistState::new(BUCKETS + 1)),
            mode: HistogramMode::Bucketed,
            bounds,
        }
    }

    /// Exact histogram retaining every observation.
    pub fn exact() -> Self {
        Histogram {
            inner: Mutex::new(HistState::new(0)),
            mode: HistogramMode::Exact,
            bounds: Vec::new(),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        st.count += 1;
        st.sum += v;
        if st.count == 1 {
            st.min = v;
            st.max = v;
        } else {
            st.min = st.min.min(v);
            st.max = st.max.max(v);
        }
        match self.mode {
            HistogramMode::Exact => st.samples.push(v),
            HistogramMode::Bucketed => {
                let idx = self.bucket_index(v);
                st.counts[idx] += 1;
            }
        }
    }

    fn bucket_index(&self, v: f64) -> usize {
        // Linear scan is fine: bucket counts are small and the partition
        // point is usually near the front for sub-second latencies.
        self.bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len())
    }

    /// Mode this histogram was created with.
    pub fn mode(&self) -> HistogramMode {
        self.mode
    }

    /// Immutable summary of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut samples = st.samples.clone();
        samples.sort_by(|a, b| a.total_cmp(b));
        HistogramSnapshot {
            mode: self.mode,
            bounds: self.bounds.clone(),
            counts: st.counts.clone(),
            sorted_samples: samples,
            count: st.count,
            sum: st.sum,
            min: if st.count > 0 { st.min } else { f64::NAN },
            max: if st.count > 0 { st.max } else { f64::NAN },
        }
    }

    /// Total observation count. Unlike [`Histogram::snapshot`] this takes
    /// the lock and reads one field — no clone, no sort, no allocation —
    /// so scrapers (sctsdb) can poll it on a cadence for free.
    pub fn count(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).count
    }

    /// Sum of every observation; the allocation-free companion of
    /// [`Histogram::count`] for scrape-path `_count`/`_sum` series.
    pub fn sum(&self) -> f64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).sum
    }

    /// [`HistogramSnapshot::percentile`] of the current state, read in
    /// place: no copy, no allocation (exact mode sorts the kept samples
    /// where they lie).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        st.samples.sort_unstable_by(f64::total_cmp);
        nearest_rank(self.mode, &self.bounds, &st.counts, &st.samples, st.max, p)
    }

    /// Forgets every observation and keeps the layout, so a histogram can
    /// be reused window after window without allocating.
    pub fn reset(&self) {
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        st.counts.fill(0);
        st.samples.clear();
        st.count = 0;
        st.sum = 0.0;
    }
}

/// [`HistogramSnapshot::percentile`]'s rule, which both reads share: exact
/// mode is [`percentile_sorted`]; in bucketed mode a rank in the overflow
/// bucket reads `max`, and the clamp makes p100 the true maximum.
fn nearest_rank(
    mode: HistogramMode,
    bounds: &[f64],
    counts: &[u64],
    sorted: &[f64],
    max: f64,
    p: f64,
) -> Option<f64> {
    let count: u64 = counts.iter().sum();
    if mode == HistogramMode::Exact || count == 0 {
        return percentile_sorted(sorted, p);
    }
    let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (&c, &bound) in counts.iter().zip(bounds) {
        seen += c;
        if seen >= rank {
            return Some(bound.min(max));
        }
    }
    Some(max)
}

/// Short human description of a storage layout, used in
/// [`MetricError::HistogramLayoutMismatch`] messages.
fn layout(mode: HistogramMode) -> String {
    match mode {
        HistogramMode::Exact => "exact".to_string(),
        HistogramMode::Bucketed => {
            format!("bucketed({BUCKETS} buckets, min bound {MIN_BOUND:e}, ratio {RATIO:.3})")
        }
    }
}

impl HistState {
    fn new(buckets: usize) -> Self {
        HistState {
            counts: vec![0; buckets],
            ..Default::default()
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Storage mode of the source histogram.
    pub mode: HistogramMode,
    /// Finite bucket upper bounds (empty in exact mode).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, final entry is overflow (empty in exact mode).
    pub counts: Vec<u64>,
    /// Sorted observations (empty in bucketed mode).
    pub sorted_samples: Vec<f64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Minimum observation (NaN when empty).
    pub min: f64,
    /// Maximum observation (NaN when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`; `None` when empty: the
    /// sample's own value (exact mode), or the upper bound of the bucket
    /// holding the rank, clamped to the maximum (bucketed mode).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let (bounds, counts, sorted) = (&self.bounds, &self.counts, &self.sorted_samples);
        nearest_rank(self.mode, bounds, counts, sorted, self.max, p)
    }
}

/// Why a metric registration was refused.
///
/// Historically the registry returned whichever instrument registered
/// *first* under a name: a second crate asking for an exact histogram
/// where a bucketed one already lived would silently feed its
/// report-grade observations into log-scaled buckets (the kind checks
/// only asserted "is a histogram", not "is the same layout"). The
/// `try_*` registration methods surface both collisions as typed errors;
/// the infallible methods panic with the same message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// `name` is already registered as a different instrument kind.
    KindMismatch {
        /// The colliding metric name.
        name: String,
        /// Kind already in the registry (`"counter"`, `"gauge"`, `"histogram"`).
        existing: &'static str,
        /// Kind the caller asked for.
        requested: &'static str,
    },
    /// `name` is a histogram, but with the other storage layout (exact
    /// vs. bucketed).
    HistogramLayoutMismatch {
        /// The colliding metric name.
        name: String,
        /// Layout already in the registry, e.g. `"bucketed(61 buckets, …)"`.
        existing: String,
        /// Layout the caller asked for.
        requested: String,
    },
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::KindMismatch {
                name,
                existing,
                requested,
            } => write!(
                f,
                "metric {name:?} is already registered as a {existing}, not a {requested}"
            ),
            MetricError::HistogramLayoutMismatch {
                name,
                existing,
                requested,
            } => write!(
                f,
                "histogram {name:?} is already registered with layout {existing}, \
                 which conflicts with requested layout {requested}"
            ),
        }
    }
}

impl std::error::Error for MetricError {}

/// One metric as stored in the registry.
#[derive(Debug)]
pub enum Metric {
    /// See [`Counter`].
    Counter(Counter),
    /// See [`Gauge`].
    Gauge(Gauge),
    /// See [`Histogram`].
    Histogram(Histogram),
}

/// Registered metadata + instrument.
#[derive(Debug)]
pub struct MetricEntry {
    /// Human description, exported as Prometheus `# HELP`.
    pub help: String,
    /// The instrument itself.
    pub metric: Metric,
}

/// Owns every metric by name; name order (BTreeMap) makes every export
/// deterministic.
///
/// Cloning the registry handle is cheap (`Arc`); instruments returned by
/// the `*_or_register` methods are `Arc`s too, so call sites can cache
/// them and update without any map lookup.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Arc<MetricEntry>>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register_with(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Metric,
    ) -> Arc<MetricEntry> {
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Look up by `&str` first: only a first registration allocates.
        if let Some(e) = map.get(name) {
            return Arc::clone(e);
        }
        let e = Arc::new(MetricEntry {
            help: help.to_string(),
            metric: make(),
        });
        map.insert(name.to_string(), Arc::clone(&e));
        e
    }

    /// Checks that an already-registered entry matches the requested
    /// `kind`, and — for histograms — the requested storage mode.
    fn check_compatible(
        name: &str,
        e: &MetricEntry,
        kind: &'static str,
        want: Option<HistogramMode>,
    ) -> Result<(), MetricError> {
        let existing = match &e.metric {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        };
        if existing != kind {
            return Err(MetricError::KindMismatch {
                name: name.to_string(),
                existing,
                requested: kind,
            });
        }
        if let (Some(want), Metric::Histogram(have)) = (want, &e.metric) {
            if have.mode() != want {
                return Err(MetricError::HistogramLayoutMismatch {
                    name: name.to_string(),
                    existing: layout(have.mode()),
                    requested: layout(want),
                });
            }
        }
        Ok(())
    }

    /// Returns the counter `name`, registering it on first use, or a
    /// [`MetricError::KindMismatch`] if `name` exists as another kind.
    pub fn try_counter(&self, name: &str, help: &str) -> Result<Arc<MetricEntry>, MetricError> {
        let e = self.register_with(name, help, || Metric::Counter(Counter::default()));
        Self::check_compatible(name, &e, "counter", None)?;
        Ok(e)
    }

    /// Returns the gauge `name`, registering it on first use, or a
    /// [`MetricError::KindMismatch`] if `name` exists as another kind.
    fn try_gauge(&self, name: &str, help: &str) -> Result<Arc<MetricEntry>, MetricError> {
        let e = self.register_with(name, help, || Metric::Gauge(Gauge::default()));
        Self::check_compatible(name, &e, "gauge", None)?;
        Ok(e)
    }

    /// Returns the bucketed histogram `name`, registering it on first use.
    /// Errors if `name` exists as another kind *or* as an exact-mode
    /// histogram.
    fn try_histogram(&self, name: &str, help: &str) -> Result<Arc<MetricEntry>, MetricError> {
        let e = self.register_with(name, help, || Metric::Histogram(Histogram::bucketed()));
        Self::check_compatible(name, &e, "histogram", Some(HistogramMode::Bucketed))?;
        Ok(e)
    }

    /// Returns the exact-mode histogram `name`, registering it on first
    /// use. Errors on kind or layout collisions (see [`Self::try_histogram`]).
    fn try_exact_histogram(&self, name: &str, help: &str) -> Result<Arc<MetricEntry>, MetricError> {
        let e = self.register_with(name, help, || Metric::Histogram(Histogram::exact()));
        Self::check_compatible(name, &e, "histogram", Some(HistogramMode::Exact))?;
        Ok(e)
    }

    /// Returns the counter `name`, registering it on first use.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<MetricEntry> {
        self.try_counter(name, help)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns the gauge `name`, registering it on first use.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<MetricEntry> {
        self.try_gauge(name, help).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns the bucketed histogram `name`, registering it on first use.
    ///
    /// Panics on kind or storage-layout collisions.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<MetricEntry> {
        self.try_histogram(name, help)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns the exact-mode histogram `name`, registering it on first use.
    ///
    /// Panics on kind or storage-layout collisions.
    pub fn exact_histogram(&self, name: &str, help: &str) -> Arc<MetricEntry> {
        self.try_exact_histogram(name, help)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Looks up a metric without registering.
    pub fn get(&self, name: &str) -> Option<Arc<MetricEntry>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Names currently registered, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every `(name, entry)` in sorted-name order.
    pub fn for_each(&self, mut f: impl FnMut(&str, &MetricEntry)) {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (name, entry) in map.iter() {
            f(name, entry);
        }
    }
}

impl MetricEntry {
    /// The counter inside, if this entry is one.
    pub fn as_counter(&self) -> Option<&Counter> {
        match &self.metric {
            Metric::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// The gauge inside, if this entry is one.
    pub fn as_gauge(&self) -> Option<&Gauge> {
        match &self.metric {
            Metric::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// The histogram inside, if this entry is one.
    pub fn as_histogram(&self) -> Option<&Histogram> {
        match &self.metric {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a_total", "a");
        c.as_counter().unwrap().add(3);
        reg.counter("a_total", "a").as_counter().unwrap().add(1);
        assert_eq!(reg.get("a_total").unwrap().as_counter().unwrap().get(), 4);

        let g = reg.gauge("lag", "lag");
        g.as_gauge().unwrap().set(10);
        g.as_gauge().unwrap().set(7);
        assert_eq!(g.as_gauge().unwrap().get(), 7);
    }

    #[test]
    fn bucketed_percentile_brackets_truth() {
        let h = Histogram::bucketed();
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-3); // 1ms .. 1s
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.percentile(0.5).unwrap();
        // Bucketed p50 over-reports by at most one bucket ratio.
        assert!((0.5..=0.5 * RATIO * RATIO).contains(&p50), "{p50}");
        assert_eq!(s.percentile(1.0), Some(1.0));
    }

    #[test]
    fn exact_percentiles() {
        let h = Histogram::exact();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), Some(3.0));
        assert_eq!(s.percentile(1.0), Some(5.0));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mean(), Some(3.0));
    }

    #[test]
    fn registry_is_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", "z");
        reg.counter("a_total", "a");
        reg.gauge("m_depth", "m");
        assert_eq!(reg.names(), vec!["a_total", "m_depth", "z_total"]);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("x", "x");
        reg.counter("x", "x");
    }

    #[test]
    fn try_registration_reports_kind_mismatch() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a");
        let err = reg.try_gauge("a_total", "a").unwrap_err();
        assert_eq!(
            err,
            MetricError::KindMismatch {
                name: "a_total".to_string(),
                existing: "counter",
                requested: "gauge",
            }
        );
    }

    /// Regression test: registering the same name as a bucketed and then
    /// an exact histogram used to silently return the first-registered
    /// instrument — exact "report-grade" observations would land in
    /// log-scaled buckets with no diagnostic. Now it is a typed error.
    #[test]
    fn histogram_mode_collision_is_a_typed_error() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat_seconds", "lat");
        let err = reg.try_exact_histogram("lat_seconds", "lat").unwrap_err();
        match &err {
            MetricError::HistogramLayoutMismatch {
                name,
                existing,
                requested,
            } => {
                assert_eq!(name, "lat_seconds");
                assert!(existing.starts_with("bucketed("), "{existing}");
                assert_eq!(requested, "exact");
            }
            other => panic!("expected layout mismatch, got {other:?}"),
        }
        // And the reverse direction.
        let reg = MetricsRegistry::new();
        reg.exact_histogram("lat_seconds", "lat");
        assert!(reg.try_histogram("lat_seconds", "lat").is_err());
    }

    #[test]
    #[should_panic(expected = "conflicts with requested layout")]
    fn infallible_histogram_panics_on_layout_collision() {
        let reg = MetricsRegistry::new();
        reg.exact_histogram("lat_seconds", "lat");
        reg.histogram("lat_seconds", "lat");
    }

    #[test]
    fn matching_re_registration_is_fine() {
        let reg = MetricsRegistry::new();
        let a = reg.try_histogram("h_seconds", "h").unwrap();
        let b = reg.try_histogram("h_seconds", "h").unwrap();
        a.as_histogram().unwrap().observe(0.5);
        assert_eq!(b.as_histogram().unwrap().snapshot().count, 1);
        assert!(reg.try_exact_histogram("e_seconds", "e").is_ok());
        assert!(reg.try_counter("c_total", "c").is_ok());
        assert!(reg.try_gauge("g", "g").is_ok());
    }
}
