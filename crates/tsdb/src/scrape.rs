//! The scraper: polls a [`MetricsRegistry`] on a fixed sim-time cadence
//! into compressed series.
//!
//! Counters and gauges are read with one atomic load; histograms expose
//! their cumulative `count`/`sum` through the allocation-free
//! [`Histogram::count`]/[`Histogram::sum`] accessors and become two
//! series (`<name>_count`, `<name>_sum`), the Prometheus convention.
//!
//! # Allocation discipline
//!
//! [`Scraper::sync`] binds newly registered metrics (allocating once per
//! new series); [`Scraper::scrape_at`] then only reads instruments and
//! appends into each binding's preallocated bit buffer — **zero
//! transient allocations** in steady state, asserted by a counting
//! global allocator in `scbench::exp::e14`. Size the reserve with
//! [`Scraper::with_sample_capacity`].

use std::collections::BTreeSet;
use std::sync::Arc;

use sctelemetry::{Histogram, MetricEntry, MetricsRegistry};
use simclock::SimTime;

use crate::series::{Series, SeriesId};
use crate::store::Tsdb;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BindKind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug)]
struct Binding {
    entry: Arc<MetricEntry>,
    kind: BindKind,
    /// Counter/gauge value series, or the histogram `_count` series.
    primary: Series,
    /// The histogram `_sum` series.
    secondary: Option<Series>,
}

/// Scrapes a registry into per-metric [`Series`] on a fixed cadence.
///
/// # Examples
///
/// ```
/// use sctelemetry::MetricsRegistry;
/// use sctsdb::{Scraper, SeriesId, Tsdb};
/// use simclock::SimTime;
///
/// let reg = MetricsRegistry::new();
/// reg.counter("req_total", "requests").as_counter().unwrap().add(5);
///
/// let mut scraper = Scraper::new(reg.clone());
/// scraper.sync();
/// scraper.scrape_at(SimTime::ZERO);
/// reg.get("req_total").unwrap().as_counter().unwrap().add(7);
/// scraper.scrape_at(SimTime::from_secs(60));
///
/// let mut db = Tsdb::new();
/// scraper.export_into(&mut db);
/// assert_eq!(db.samples(&SeriesId::new("req_total")), vec![(0, 5.0), (60_000_000, 12.0)]);
/// ```
#[derive(Debug)]
pub struct Scraper {
    registry: MetricsRegistry,
    sample_capacity: usize,
    labels: Vec<(String, String)>,
    bound: BTreeSet<String>,
    bindings: Vec<Binding>,
}

impl Scraper {
    /// A scraper over `registry`, scraped by [`Scraper::scrape_at`].
    pub fn new(registry: MetricsRegistry) -> Self {
        Scraper {
            registry,
            sample_capacity: 0,
            labels: Vec::new(),
            bound: BTreeSet::new(),
            bindings: Vec::new(),
        }
    }

    /// Reserves each new series' buffer for `samples` appends, bounding
    /// scrape-path allocation to zero until the reserve is exhausted.
    pub fn with_sample_capacity(mut self, samples: usize) -> Self {
        self.sample_capacity = samples;
        self
    }

    /// Attaches a constant label to every scraped series (e.g.
    /// `tier="edge"`), enabling `sum by (tier)` across scrapers.
    pub fn with_label(mut self, key: &str, value: &str) -> Self {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }

    /// Series bound so far (histograms count twice).
    pub fn series_count(&self) -> usize {
        self.bindings
            .iter()
            .map(|b| 1 + b.secondary.is_some() as usize)
            .sum()
    }

    fn id_for(&self, name: &str) -> SeriesId {
        let mut id = SeriesId::new(name);
        for (k, v) in &self.labels {
            id = id.with_label(k, v);
        }
        id
    }

    /// Binds metrics registered since the last call; returns how many
    /// were new. Allocates only for those. Call after instrumented code
    /// may have registered metrics; [`Scraper::scrape_at`] never binds.
    pub fn sync(&mut self) -> usize {
        if self.registry.len() == self.bound.len() {
            return 0;
        }
        let mut added = 0;
        for name in self.registry.names() {
            if self.bound.contains(name.as_str()) {
                continue;
            }
            let Some(entry) = self.registry.get(&name) else {
                continue;
            };
            let (kind, primary, secondary) = if entry.as_counter().is_some() {
                let s = Series::with_capacity(self.id_for(&name), self.sample_capacity);
                (BindKind::Counter, s, None)
            } else if entry.as_gauge().is_some() {
                let s = Series::with_capacity(self.id_for(&name), self.sample_capacity);
                (BindKind::Gauge, s, None)
            } else {
                let count = Series::with_capacity(
                    self.id_for(&format!("{name}_count")),
                    self.sample_capacity,
                );
                let sum = Series::with_capacity(
                    self.id_for(&format!("{name}_sum")),
                    self.sample_capacity,
                );
                (BindKind::Histogram, count, Some(sum))
            };
            self.bindings.push(Binding {
                entry,
                kind,
                primary,
                secondary,
            });
            self.bound.insert(name);
            added += 1;
        }
        added
    }

    /// Snapshots every bound instrument at `at`. Returns the number of
    /// series appended to. Zero transient allocations while each series
    /// stays within its reserve.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes an earlier scrape (series are append-only
    /// in sim time).
    pub fn scrape_at(&mut self, at: SimTime) -> usize {
        let t = at.as_micros();
        let mut touched = 0;
        for b in &mut self.bindings {
            match b.kind {
                BindKind::Counter => {
                    let v = b.entry.as_counter().expect("bound as counter").get();
                    b.primary
                        .push(t, v as f64)
                        .expect("scrape times are non-decreasing");
                    touched += 1;
                }
                BindKind::Gauge => {
                    let v = b.entry.as_gauge().expect("bound as gauge").get();
                    b.primary
                        .push(t, v as f64)
                        .expect("scrape times are non-decreasing");
                    touched += 1;
                }
                BindKind::Histogram => {
                    let h: &Histogram = b.entry.as_histogram().expect("bound as histogram");
                    b.primary
                        .push(t, h.count() as f64)
                        .expect("scrape times are non-decreasing");
                    let sum = b.secondary.as_mut().expect("histogram binds _sum");
                    sum.push(t, h.sum())
                        .expect("scrape times are non-decreasing");
                    touched += 2;
                }
            }
        }
        touched
    }

    /// The scraped series, in binding order.
    fn series(&self) -> impl Iterator<Item = &Series> {
        self.bindings
            .iter()
            .flat_map(|b| std::iter::once(&b.primary).chain(b.secondary.as_ref()))
    }

    /// Copies every non-empty scraped series into `db`.
    pub fn export_into(&self, db: &mut Tsdb) {
        for s in self.series().filter(|s| !s.is_empty()) {
            db.insert_series(s.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_all_three_instrument_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "c").as_counter().unwrap().add(2);
        reg.gauge("g", "g").as_gauge().unwrap().set(-7);
        let h = reg.exact_histogram("h_seconds", "h");
        h.as_histogram().unwrap().observe(0.5);
        h.as_histogram().unwrap().observe(1.5);

        let mut sc = Scraper::new(reg);
        assert_eq!(sc.sync(), 3);
        assert_eq!(sc.scrape_at(SimTime::from_secs(1)), 4);
        let mut db = Tsdb::new();
        sc.export_into(&mut db);
        assert_eq!(
            db.samples(&SeriesId::new("c_total")),
            vec![(1_000_000, 2.0)]
        );
        assert_eq!(db.samples(&SeriesId::new("g")), vec![(1_000_000, -7.0)]);
        assert_eq!(
            db.samples(&SeriesId::new("h_seconds_count")),
            vec![(1_000_000, 2.0)]
        );
        assert_eq!(
            db.samples(&SeriesId::new("h_seconds_sum")),
            vec![(1_000_000, 2.0)]
        );
    }

    #[test]
    fn late_registrations_bind_on_sync() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a");
        let mut sc = Scraper::new(reg.clone()).with_label("tier", "edge");
        assert_eq!(sc.sync(), 1);
        sc.scrape_at(SimTime::from_secs(1));
        reg.counter("b_total", "b");
        assert_eq!(sc.sync(), 1);
        sc.scrape_at(SimTime::from_secs(2));
        let mut db = Tsdb::new();
        sc.export_into(&mut db);
        let a = SeriesId::new("a_total").with_label("tier", "edge");
        let b = SeriesId::new("b_total").with_label("tier", "edge");
        assert_eq!(db.samples(&a).len(), 2);
        assert_eq!(db.samples(&b).len(), 1, "bound late, scraped once");
    }
}
