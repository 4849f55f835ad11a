//! The Fig. 4 data pipeline: collection → NoSQL storage → analysis →
//! visualization.
//!
//! "The raw input data are collected from multiple sources and stored in
//! NoSQL databases for analysis in analysis servers. Analysis servers run
//! different deep learning model\[s\] for inference and the result of inference
//! will be sent to the web server to be visualized on our website."
//!
//! A run is five stages — `ingest → store → mine → annotate → visualize` —
//! each writing its own `smartcity_pipeline_*` metric and closing its
//! `pipeline/<stage>` span on one simulated clock.
//!
//! [`RunOptions::run_observed`] hands a caller's [`Probe`] each stage as a
//! phase (`"ingest"`, `"store"`, `"mine"`, `"annotate"`, `"visualize"`)
//! and every call a stage makes into a layer as a [`StageOp`]; the run's
//! outcome does not depend on the probe.

use sccompute::mllib::kmeans_ctx;
use scdata::city::{OpenCityGenerator, OpenRecord, OpenRecordKind};
use scdata::waze::{WazeGenerator, WazeReport};
use scgeo::corridor::Corridor;
use scgeo::GeoPoint;
use scnosql::document::{Collection, Doc, Filter};
use scnosql::wide_column::Table;
use scnosql::NosqlError;
use scpar::ScparConfig;
use scstream::{ConsumerGroup, ConsumerId, Event, Offset, PartitionId, Topic};
use sctelemetry::{
    Probe, Report, SpanContext, TelemetryHandle, TraceId, WorkDelta, STREAM_PIPELINE,
};
use serde_json::Value;
use simclock::{SimDuration, SimTime};

use crate::viz::{dashboard, geojson_points, MapFeature, Series};

/// Metric name of the events-ingested counter.
const METRIC_INGESTED: &str = "smartcity_pipeline_ingested_total";
/// Metric name of the documents-stored counter.
const METRIC_STORED: &str = "smartcity_pipeline_stored_total";
/// Metric name of the annotation-cells counter.
const METRIC_ANNOTATED: &str = "smartcity_pipeline_annotated_total";
/// Metric name of the hot-spots gauge.
const METRIC_HOTSPOTS: &str = "smartcity_pipeline_hotspots";

/// The calls a pipeline run makes into a layer, as a [`Probe`] sees them.
///
/// [`StageOp::NAMES`] holds each op's name, indexed by `op as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageOp {
    /// A generator's records: the open-city stream or the Waze stream.
    Generate,
    /// A stream's records encoded as events (fanned out).
    EncodeEvents,
    /// One event into the raw topic.
    Publish,
    /// One poll of the storage consumer group.
    Poll,
    /// One event decoded as a document.
    EventToDoc,
    /// One document into the store.
    Insert,
    /// One offset committed by the storage consumer group.
    Commit,
    /// The mining stage's query for crime and 911 documents.
    Find,
    /// The hot-spot k-means.
    Kmeans,
    /// The per-kind counts (fanned out).
    IndexedCount,
    /// One cell into the annotation table.
    TablePut,
    /// The dashboard and the GeoJSON layer.
    Viz,
}

impl StageOp {
    /// Every op's name, `<crate>.<call>`, indexed by `op as usize`.
    pub const NAMES: [&'static str; 12] = [
        "scdata.generate",
        "smartcity-core.encode_events",
        "scstream.publish",
        "scstream.poll",
        "smartcity-core.event_to_doc",
        "scnosql.insert",
        "scstream.commit",
        "scnosql.find",
        "sccompute.kmeans",
        "scnosql.indexed_count",
        "scnosql.table_put",
        "smartcity-core.viz",
    ];
}

/// End-of-run accounting for one pipeline execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Events this run published into the raw topic.
    pub ingested: usize,
    /// Documents this run persisted in the document store.
    pub stored: usize,
    /// Annotation cells written to the wide-column table.
    pub annotated: usize,
    /// Crime hot-spot centroids found by the mining stage.
    pub hotspots: Vec<GeoPoint>,
    /// The dashboard JSON the web layer would serve.
    pub dashboard: Value,
    /// The incident GeoJSON layer.
    pub geojson: Value,
    sim_elapsed: SimDuration,
}

impl PipelineReport {
    /// The run's simulated elapsed time — one microsecond per item each
    /// stage handled plus one per stage — where its `pipeline/run` span ends.
    pub fn sim_elapsed(&self) -> SimDuration {
        self.sim_elapsed
    }
}

impl Report for PipelineReport {
    fn kv(&self) -> Vec<(String, f64)> {
        vec![
            ("ingested".to_string(), self.ingested as f64),
            ("stored".to_string(), self.stored as f64),
            ("annotated".to_string(), self.annotated as f64),
            ("hotspots".to_string(), self.hotspots.len() as f64),
        ]
    }
}

/// The city data pipeline over a raw topic, document store, and annotation
/// table (typically the ones owned by
/// [`crate::infrastructure::Cyberinfrastructure`]).
#[derive(Debug)]
pub struct CityDataPipeline {
    seed: u64,
    records: usize,
    waze_reports: usize,
}

impl CityDataPipeline {
    /// Creates a pipeline generating `records` open-city records and
    /// `waze_reports` Waze reports from `seed`.
    pub fn new(seed: u64, records: usize, waze_reports: usize) -> Self {
        CityDataPipeline {
            seed,
            records,
            waze_reports,
        }
    }

    fn record_event(r: &OpenRecord) -> Event {
        let body = serde_json::json!({
            "source": "city",
            "kind": format!("{:?}", r.kind),
            "lat": r.location.lat(),
            "lon": r.location.lon(),
            "time_us": r.time.as_micros(),
        });
        Event::with_key(format!("city-{}", r.id), body.to_string().into_bytes())
            .header("source", "city")
            .at(r.time)
    }

    fn waze_event(r: &WazeReport) -> Event {
        let body = serde_json::json!({
            "source": "waze",
            "kind": format!("{:?}", r.kind),
            "lat": r.location.lat(),
            "lon": r.location.lon(),
            "time_us": r.time.as_micros(),
            "speed_kmh": r.speed_kmh,
        });
        Event::with_key(format!("waze-{}", r.id), body.to_string().into_bytes())
            .header("source", "waze")
            .at(r.time)
    }

    fn event_to_doc(event: &Event) -> Option<Doc> {
        let v: Value = serde_json::from_slice(event.payload()).ok()?;
        let obj = v.as_object()?;
        Some(Doc::object([
            ("source", Doc::Str(obj.get("source")?.as_str()?.to_string())),
            ("kind", Doc::Str(obj.get("kind")?.as_str()?.to_string())),
            (
                "geo",
                Doc::object([
                    ("lat", Doc::F64(obj.get("lat")?.as_f64()?)),
                    ("lon", Doc::F64(obj.get("lon")?.as_f64()?)),
                ]),
            ),
            (
                "time_us",
                Doc::I64(obj.get("time_us")?.as_i64().unwrap_or(0)),
            ),
        ]))
    }

    /// Starts building a configured pipeline run over the given substrates.
    ///
    /// Defaults: telemetry disabled and the ambient [`ScparConfig`]
    /// (`SCPAR_THREADS` / available parallelism) for the fanned-out stages.
    ///
    /// ```
    /// # use smartcity_core::pipeline::CityDataPipeline;
    /// # use scnosql::document::Collection;
    /// # use scnosql::wide_column::Table;
    /// # use scstream::Topic;
    /// let mut topic = Topic::new("raw", 4);
    /// let mut store = Collection::new("incidents");
    /// store.create_index("kind");
    /// let mut annotations = Table::new("annotations", 1024);
    /// let report = CityDataPipeline::new(42, 120, 30)
    ///     .runner(&mut topic, &mut store, &mut annotations)
    ///     .run()
    ///     .expect("generated pipeline data is always valid");
    /// assert_eq!(report.ingested, 150);
    /// ```
    pub fn runner<'a>(
        &'a self,
        topic: &'a mut Topic,
        store: &'a mut Collection,
        annotations: &'a mut Table,
    ) -> RunOptions<'a> {
        RunOptions {
            pipeline: self,
            topic,
            store,
            annotations,
            telemetry: TelemetryHandle::disabled(),
            par: ScparConfig::from_env(),
            clock: SimClock {
                root: SpanContext::root(TraceId::derive(self.seed, STREAM_PIPELINE, 0)),
                cursor: 0,
                seq: 0,
            },
        }
    }
}

/// A run's simulated clock: one causal trace, a `pipeline/run` root whose
/// children are the stage spans, with ids derived from the seed so
/// identical seeds name identical traces at any thread count. Time advances
/// one microsecond per item a stage handled plus one per stage.
#[derive(Debug)]
struct SimClock {
    root: SpanContext,
    cursor: u64,
    seq: u64,
}

impl SimClock {
    /// Closes stage `name` after it handled `items`: its span, and one
    /// batch-aggregated work delta under the same name (`pipeline/<stage>`
    /// doubles as the kernel name).
    fn close(&mut self, telemetry: &TelemetryHandle, name: &str, items: usize) {
        let start = SimTime::from_micros(self.cursor);
        self.cursor += items as u64 + 1;
        let end = SimTime::from_micros(self.cursor);
        telemetry.span_in("smartcity", name, start, end, self.root.child(self.seq));
        telemetry.work(name, WorkDelta::items(items as u64));
        self.seq += 1;
    }

    /// Closes the `pipeline/run` root over every stage; returns its length.
    fn finish(&self, telemetry: &TelemetryHandle) -> SimDuration {
        let end = SimTime::from_micros(self.cursor);
        telemetry.span_in("smartcity", "pipeline/run", SimTime::ZERO, end, self.root);
        SimDuration::from_micros(self.cursor)
    }
}

/// Runs `stage` as phase `name` of `probe`'s run.
fn phase<P: Probe<StageOp>, R>(
    probe: &mut P,
    name: &'static str,
    stage: impl FnOnce(&mut P) -> R,
) -> R {
    probe.begin(name, None);
    let out = stage(probe);
    probe.end();
    out
}

/// Builder for configured pipeline runs — the redesigned run API.
///
/// Obtained from [`CityDataPipeline::runner`]. Mirrors the `scfog`
/// `SimRunner` pattern: chain options, then [`RunOptions::run`].
#[derive(Debug)]
pub struct RunOptions<'a> {
    pipeline: &'a CityDataPipeline,
    topic: &'a mut Topic,
    store: &'a mut Collection,
    annotations: &'a mut Table,
    telemetry: TelemetryHandle,
    par: ScparConfig,
    clock: SimClock,
}

impl RunOptions<'_> {
    /// Routes per-stage counters and sim-time spans to `telemetry`.
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Caps the worker pool used by the fanned-out stages at `threads`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.par = ScparConfig::with_threads(threads);
        self
    }

    /// Executes the pipeline's five stages in order. Identical seeds yield
    /// identical traces, and the fanned-out stages chunk independently of
    /// the thread count, so reports and telemetry do not depend on it.
    ///
    /// # Errors
    ///
    /// Propagates [`NosqlError`] from the storage and annotation stages
    /// (e.g. a malformed document rejected by the store).
    pub fn run(self) -> Result<PipelineReport, NosqlError> {
        self.run_observed(&mut ())
    }

    /// [`RunOptions::run`] under `probe`: each stage is a phase, and each
    /// call it makes into a layer a [`StageOp`] (see the module docs).
    ///
    /// # Errors
    ///
    /// As [`RunOptions::run`]; the failing stage's phase is closed first.
    pub fn run_observed(
        mut self,
        probe: &mut impl Probe<StageOp>,
    ) -> Result<PipelineReport, NosqlError> {
        let (ingested, from) = phase(probe, "ingest", |p| self.ingest(p));
        let stored = phase(probe, "store", |p| self.store(&from, p))?;
        let hotspots = phase(probe, "mine", |p| self.mine(p))?;
        let (annotated, kind_counts) = phase(probe, "annotate", |p| self.annotate(&hotspots, p))?;
        let kpis = [
            ("ingested", ingested as f64),
            ("stored", stored as f64),
            ("hotspots", hotspots.len() as f64),
        ];
        let (dashboard, geojson) = phase(probe, "visualize", |p| {
            self.visualize(&kpis, kind_counts, p)
        });
        Ok(PipelineReport {
            ingested,
            stored,
            annotated,
            hotspots,
            dashboard,
            geojson,
            sim_elapsed: self.clock.finish(&self.telemetry),
        })
    }

    /// Collection: raw sources → topic. Event construction (JSON
    /// serialization) fans out; publication stays serial, in generator
    /// order. Returns the events published and, per partition, the end
    /// offset from before, where this run's events begin.
    fn ingest(&mut self, probe: &mut impl Probe<StageOp>) -> (usize, Vec<Offset>) {
        let (seed, par) = (self.pipeline.seed, &self.par);
        let from = (0..self.topic.partition_count())
            .map(|p| self.topic.end_offset(PartitionId(p)))
            .collect();
        let city_records = probe.time(StageOp::Generate, || {
            OpenCityGenerator::new(seed).stream(self.pipeline.records)
        });
        let events = probe.time(StageOp::EncodeEvents, || {
            scpar::par_map(par, &city_records, CityDataPipeline::record_event)
        });
        for event in events {
            probe.time(StageOp::Publish, || self.topic.publish(event));
        }
        let i10 = Corridor::new(
            "I-10",
            vec![GeoPoint::new(30.40, -91.30), GeoPoint::new(30.47, -91.00)],
        );
        let waze_reports = probe.time(StageOp::Generate, || {
            WazeGenerator::new(seed.wrapping_add(1)).stream(&i10, self.pipeline.waze_reports)
        });
        let events = probe.time(StageOp::EncodeEvents, || {
            scpar::par_map(par, &waze_reports, CityDataPipeline::waze_event)
        });
        for event in events {
            probe.time(StageOp::Publish, || self.topic.publish(event));
        }
        let ingested = city_records.len() + waze_reports.len();
        self.telemetry.counter_add(
            METRIC_INGESTED,
            "events published into the raw topic",
            ingested as u64,
        );
        self.clock
            .close(&self.telemetry, "pipeline/ingest", ingested);
        (ingested, from)
    }

    /// Storage: a consumer group drains the topic into the document store
    /// with committed offsets (at-least-once), from `from` on: a group that
    /// polled from offset 0 would store an earlier run's events again, as
    /// `Collection::insert` mints a new id per document. Returns the
    /// documents inserted.
    fn store(
        &mut self,
        from: &[Offset],
        probe: &mut impl Probe<StageOp>,
    ) -> Result<usize, NosqlError> {
        let mut group = ConsumerGroup::new("storage-writers", self.topic.partition_count())
            .with_telemetry(self.telemetry.clone());
        group.join(ConsumerId(0));
        for (p, start) in (0..).zip(from) {
            if let Some(before) = start.0.checked_sub(1) {
                probe.time(StageOp::Commit, || {
                    group.commit(PartitionId(p), Offset(before))
                });
            }
        }
        let mut stored = 0;
        loop {
            let batch = probe.time(StageOp::Poll, || group.poll(ConsumerId(0), self.topic, 256));
            if batch.is_empty() {
                break;
            }
            for (pid, offset, event) in batch {
                let doc = probe.time(StageOp::EventToDoc, || {
                    CityDataPipeline::event_to_doc(&event)
                });
                if let Some(doc) = doc {
                    probe.time(StageOp::Insert, || self.store.insert(doc))?;
                    stored += 1;
                }
                probe.time(StageOp::Commit, || group.commit(pid, offset));
            }
        }
        self.telemetry.counter_add(
            METRIC_STORED,
            "documents persisted in the document store",
            stored as u64,
        );
        self.clock.close(&self.telemetry, "pipeline/store", stored);
        Ok(stored)
    }

    /// Analysis: mines crime hot-spots with parallel-assignment k-means
    /// over the stored crime/911 documents.
    fn mine(&mut self, probe: &mut impl Probe<StageOp>) -> Result<Vec<GeoPoint>, NosqlError> {
        let crime_points: Vec<Vec<f64>> = probe
            .time(StageOp::Find, || {
                self.store.find(&Filter::Or(vec![
                    Filter::Eq("kind".into(), Doc::Str("CrimeIncident".into())),
                    Filter::Eq("kind".into(), Doc::Str("EmergencyCall".into())),
                ]))
            })?
            .iter()
            .filter_map(|(_, d)| {
                Some(vec![
                    d.path("geo.lat")?.as_f64()?,
                    d.path("geo.lon")?.as_f64()?,
                ])
            })
            .collect();
        let mut hotspots = Vec::new();
        if crime_points.len() >= 3 {
            let ctx = scneural::exec::ExecCtx::serial()
                .with_par(self.par)
                .with_telemetry(self.telemetry.clone());
            let model = probe.time(StageOp::Kmeans, || {
                kmeans_ctx(&crime_points, 3, 25, self.pipeline.seed, &ctx)
            });
            hotspots.extend(model.centroids.iter().map(|c| GeoPoint::new(c[0], c[1])));
        }
        self.telemetry.gauge_set(
            METRIC_HOTSPOTS,
            "crime hot-spot centroids mined",
            hotspots.len() as i64,
        );
        self.clock
            .close(&self.telemetry, "pipeline/mine", crime_points.len());
        Ok(hotspots)
    }

    /// Annotation: per-kind counts, then the hot-spots, as table cells. The
    /// counts fan out as parallel index reads over the shared store
    /// (`&Collection` queries are thread-safe); the cell writes stay serial
    /// and ordered. Returns the cells written and the counts as
    /// `(kind index, count)` points.
    fn annotate(
        &mut self,
        hotspots: &[GeoPoint],
        probe: &mut impl Probe<StageOp>,
    ) -> Result<(usize, Vec<(f64, f64)>), NosqlError> {
        let store = &*self.store;
        let counts = probe.time(StageOp::IndexedCount, || {
            scpar::par_map(&self.par, &OpenRecordKind::ALL, |kind| {
                let kind_name = format!("{kind:?}");
                let count = store.count(&Filter::Eq("kind".into(), Doc::Str(kind_name.clone())));
                (kind_name, count)
            })
        });
        let mut kind_counts = Vec::new();
        for (kind_name, count) in counts {
            let count = count?;
            let (row, value) = (
                format!("counts#{kind_name}"),
                count.to_string().into_bytes(),
            );
            probe.time(StageOp::TablePut, || {
                self.annotations.put(&row, "stats", "count", value)
            })?;
            kind_counts.push((kind_counts.len() as f64, count as f64));
        }
        for (i, h) in hotspots.iter().enumerate() {
            let (row, value) = (
                format!("hotspot#{i}"),
                format!("{:.5},{:.5}", h.lat(), h.lon()).into_bytes(),
            );
            probe.time(StageOp::TablePut, || {
                self.annotations.put(&row, "geo", "latlon", value)
            })?;
        }
        let annotated = kind_counts.len() + hotspots.len();
        self.telemetry.counter_add(
            METRIC_ANNOTATED,
            "cells written to the annotation table",
            annotated as u64,
        );
        self.clock
            .close(&self.telemetry, "pipeline/annotate", annotated);
        Ok((annotated, kind_counts))
    }

    /// Visualization: the dashboard JSON over `kpis` and the per-kind
    /// counts, and the GeoJSON of every stored incident.
    fn visualize(
        &mut self,
        kpis: &[(&str, f64)],
        kind_counts: Vec<(f64, f64)>,
        probe: &mut impl Probe<StageOp>,
    ) -> (Value, Value) {
        let (features, dash, geojson) = probe.time(StageOp::Viz, || {
            let features: Vec<MapFeature> = self
                .store
                .iter()
                .filter_map(|(_, d)| {
                    Some(MapFeature {
                        location: GeoPoint::new(
                            d.path("geo.lat")?.as_f64()?,
                            d.path("geo.lon")?.as_f64()?,
                        ),
                        label: d.path("kind")?.as_str()?.to_string(),
                        category: d.path("source")?.as_str()?.to_string(),
                    })
                })
                .collect();
            let geojson = geojson_points(&features);
            let series = Series {
                name: "records_by_kind".into(),
                points: kind_counts,
            };
            let dash = dashboard(kpis, &[series]);
            (features.len(), dash, geojson)
        });
        self.clock
            .close(&self.telemetry, "pipeline/visualize", features);
        (dash, geojson)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scprof::Profiler;
    use sctelemetry::{SpanRecord, Telemetry, TraceRecord};

    use crate::viz::telemetry_panel;

    fn substrates() -> (Topic, Collection, Table) {
        let mut store = Collection::new("incidents");
        store.create_index("kind");
        (Topic::new("raw", 4), store, Table::new("annotations", 1024))
    }

    fn run_pipeline(records: usize, waze: usize) -> (PipelineReport, Collection, Table) {
        let (mut topic, mut store, mut annotations) = substrates();
        let report = CityDataPipeline::new(11, records, waze)
            .runner(&mut topic, &mut store, &mut annotations)
            .run()
            .unwrap();
        (report, store, annotations)
    }

    fn spans(trace: &[TraceRecord]) -> impl Iterator<Item = &SpanRecord> {
        trace.iter().filter_map(|r| match r {
            TraceRecord::Span(s) => Some(s),
            _ => None,
        })
    }

    #[test]
    fn every_event_lands_in_store() {
        let (report, store, _) = run_pipeline(200, 50);
        assert_eq!(report.ingested, 250);
        assert_eq!(report.stored, 250);
        assert_eq!(store.len(), 250);
    }

    #[test]
    fn a_second_run_stores_only_its_own_events() {
        let (mut topic, mut store, mut annotations) = substrates();
        let first = CityDataPipeline::new(1, 120, 30)
            .runner(&mut topic, &mut store, &mut annotations)
            .run()
            .unwrap();
        assert_eq!((first.ingested, first.stored), (150, 150));

        let t = Telemetry::shared();
        let second = CityDataPipeline::new(2, 120, 30)
            .runner(&mut topic, &mut store, &mut annotations)
            .telemetry(t.handle())
            .run()
            .unwrap();
        assert_eq!((second.ingested, second.stored), (150, 150));
        assert_eq!(store.len(), 300);
        assert_eq!(second.dashboard["kpis"]["stored"], 150.0);
        let counter = |n: &str| t.registry().get(n).unwrap().as_counter().unwrap().get();
        assert_eq!(counter(METRIC_INGESTED), 150);
        assert_eq!(counter(METRIC_STORED), 150);
    }

    #[test]
    fn ingest_publishes_every_event_in_generator_order() {
        let (mut topic, mut store, mut annotations) = substrates();
        let pipeline = CityDataPipeline::new(11, 40, 10);
        let mut run = pipeline.runner(&mut topic, &mut store, &mut annotations);
        let (ingested, from) = run.ingest(&mut ());
        assert_eq!(ingested, 50);
        assert_eq!(from, vec![Offset(0); 4]);
        assert_eq!(run.topic.total_events(), 50);
        // Generator order: the city records, then the Waze reports, each
        // by id; a partition holds its share of that sequence in order.
        let keys: Vec<String> = (0..40)
            .map(|i| format!("city-{i}"))
            .chain((0..10).map(|i| format!("waze-{i}")))
            .collect();
        for p in 0..4 {
            let pid = PartitionId(p);
            let held: Vec<_> = run
                .topic
                .read(pid, Offset(0), usize::MAX)
                .iter()
                .map(|e| e.key().unwrap())
                .collect();
            let expected: Vec<_> = keys
                .iter()
                .filter(|k| run.topic.partition_for_key(k) == pid)
                .map(String::as_str)
                .collect();
            assert_eq!(held, expected, "partition {p}");
        }
    }

    #[test]
    fn store_inserts_each_decodable_event_once() {
        let (mut topic, mut store, mut annotations) = substrates();
        // More events than one 256-event poll, plus two that do not decode.
        let records = OpenCityGenerator::new(3).stream(300);
        for r in &records {
            topic.publish(CityDataPipeline::record_event(r));
        }
        topic.publish(Event::with_key("junk-0", b"not json".to_vec()));
        topic.publish(Event::with_key("junk-1", br#"{"source":"city"}"#.to_vec()));
        let pipeline = CityDataPipeline::new(3, 0, 0);
        let mut run = pipeline.runner(&mut topic, &mut store, &mut annotations);
        assert_eq!(run.store(&[Offset(0); 4], &mut ()).unwrap(), 300);

        let mut times: Vec<i64> = store
            .iter()
            .map(|(_, d)| match d.path("time_us") {
                Some(Doc::I64(t)) => *t,
                other => panic!("time_us: {other:?}"),
            })
            .collect();
        times.sort_unstable();
        let expected: Vec<i64> = records.iter().map(|r| r.time.as_micros() as i64).collect();
        assert_eq!(times, expected);
    }

    #[test]
    fn the_run_span_ends_at_the_sim_elapsed_time() {
        let t = Telemetry::shared();
        let profiler = Profiler::shared_wrapping(t.clone());
        let (mut topic, mut store, mut annotations) = substrates();
        let report = CityDataPipeline::new(11, 200, 50)
            .runner(&mut topic, &mut store, &mut annotations)
            .telemetry(profiler.handle())
            .run()
            .unwrap();

        let trace = t.trace();
        let root = spans(&trace).find(|s| s.name == "pipeline/run").unwrap();
        assert_eq!(root.end, SimTime::ZERO + report.sim_elapsed());
        let stages: Vec<u64> = profiler
            .report()
            .kernels
            .iter()
            .filter(|k| k.name.starts_with("pipeline/"))
            .map(|k| k.work.items + 1)
            .collect();
        assert_eq!(stages.len(), 5);
        assert_eq!(stages.iter().sum::<u64>(), report.sim_elapsed().as_micros());
    }

    /// Records the phases a run opens and counts the calls it makes.
    #[derive(Default)]
    struct Recording {
        phases: Vec<&'static str>,
        open: bool,
        calls: [u64; StageOp::NAMES.len()],
    }

    impl Probe<StageOp> for Recording {
        fn time<R>(&mut self, op: StageOp, f: impl FnOnce() -> R) -> R {
            assert!(self.open, "{} outside a stage", StageOp::NAMES[op as usize]);
            self.calls[op as usize] += 1;
            f()
        }

        fn begin(&mut self, phase: &'static str, window: Option<u32>) {
            assert!(!self.open && window.is_none(), "{phase} opened in a stage");
            self.open = true;
            self.phases.push(phase);
        }

        fn end(&mut self) {
            assert!(self.open, "a stage closed twice");
            self.open = false;
        }
    }

    #[test]
    fn a_probe_sees_the_five_stages_in_order_and_changes_nothing() {
        let (plain, _, _) = run_pipeline(200, 50);
        let (mut topic, mut store, mut annotations) = substrates();
        let mut probe = Recording::default();
        let observed = CityDataPipeline::new(11, 200, 50)
            .runner(&mut topic, &mut store, &mut annotations)
            .run_observed(&mut probe)
            .unwrap();
        assert_eq!(
            probe.phases,
            ["ingest", "store", "mine", "annotate", "visualize"]
        );
        assert!(!probe.open);
        // Report, dashboard and GeoJSON alike.
        assert_eq!(observed, plain);
        let calls = |op: StageOp| probe.calls[op as usize];
        assert_eq!(calls(StageOp::Generate), 2);
        for op in [StageOp::Publish, StageOp::EventToDoc, StageOp::Insert] {
            assert_eq!(calls(op), 250, "{}", StageOp::NAMES[op as usize]);
        }
        assert_eq!(calls(StageOp::TablePut), observed.annotated as u64);
        assert_eq!(calls(StageOp::Viz), 1);
    }

    #[test]
    fn hotspots_found_near_generators() {
        let (report, _, _) = run_pipeline(600, 0);
        assert_eq!(report.hotspots.len(), 3);
        // Generator hot spots are within ~8 km of the Baton Rouge anchor.
        let anchor = GeoPoint::new(30.4515, -91.1871);
        for h in &report.hotspots {
            assert!(anchor.haversine_m(*h) < 10_000.0, "{h}");
        }
    }

    #[test]
    fn annotations_written_for_every_kind() {
        let (_, _, annotations) = run_pipeline(150, 20);
        for kind in OpenRecordKind::ALL {
            let cell = annotations.get(&format!("counts#{kind:?}"), "stats", "count");
            assert!(cell.is_some(), "{kind:?} count missing");
        }
    }

    #[test]
    fn dashboard_and_geojson_populated() {
        let (report, _, _) = run_pipeline(100, 10);
        assert_eq!(report.dashboard["kpis"]["ingested"], 110.0);
        assert_eq!(report.geojson["features"].as_array().unwrap().len(), 110);
    }

    #[test]
    fn counts_sum_to_city_records() {
        let (report, store, _) = run_pipeline(140, 0);
        let total: usize = OpenRecordKind::ALL
            .iter()
            .map(|k| {
                store
                    .count(&Filter::Eq("kind".into(), Doc::Str(format!("{k:?}"))))
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 140);
        assert_eq!(report.annotated, 7 + report.hotspots.len());
    }

    #[test]
    fn recorded_run_mirrors_report_and_adds_panel() {
        let t = Telemetry::shared();
        let (mut topic, mut store, mut annotations) = substrates();
        let report = CityDataPipeline::new(11, 200, 50)
            .runner(&mut topic, &mut store, &mut annotations)
            .telemetry(t.handle())
            .run()
            .unwrap();

        let reg = t.registry();
        let counter = |n: &str| reg.get(n).unwrap().as_counter().unwrap().get();
        assert_eq!(counter(METRIC_INGESTED) as usize, report.ingested);
        assert_eq!(counter(METRIC_STORED) as usize, report.stored);
        assert_eq!(counter(METRIC_ANNOTATED) as usize, report.annotated);
        assert_eq!(
            reg.get(METRIC_HOTSPOTS).unwrap().as_gauge().unwrap().get() as usize,
            report.hotspots.len()
        );
        // The storage consumer group reports through the same recorder.
        assert_eq!(counter(scstream::METRIC_COMMITS) as usize, report.ingested);

        // Plain KPIs; a telemetry panel built from the registry covers the
        // pipeline metrics.
        assert_eq!(report.dashboard["kpis"]["ingested"], 250.0);
        let panel = telemetry_panel(reg);
        let rows = panel["metrics"].as_array().unwrap();
        assert!(rows.len() >= 5, "panel covers the pipeline metrics");

        // A `pipeline/run` root plus five ordered stage spans with a
        // deterministic sim-time clock (trace order is (at, target, name),
        // so the t=0 root sorts between `ingest` and `store`).
        let trace = t.trace();
        let names: Vec<_> = spans(&trace).map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "pipeline/ingest",
                "pipeline/run",
                "pipeline/store",
                "pipeline/mine",
                "pipeline/annotate",
                "pipeline/visualize"
            ]
        );
        // The run root's trace id is seed-derived and every stage span is
        // its direct child.
        let root = spans(&trace)
            .find(|s| s.name == "pipeline/run")
            .and_then(|s| s.ctx)
            .expect("root span carries a context");
        assert_eq!(root.trace, TraceId::derive(11, STREAM_PIPELINE, 0));
        for s in spans(&trace).filter(|s| s.name != "pipeline/run") {
            let ctx = s.ctx.expect("stage spans carry contexts");
            assert_eq!(ctx.parent, Some(root.span));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _, _) = run_pipeline(100, 20);
        let (b, _, _) = run_pipeline(100, 20);
        assert_eq!(a.hotspots, b.hotspots);
        assert_eq!(a.stored, b.stored);
    }

    fn run_with_threads(threads: usize) -> (PipelineReport, String) {
        let t = Telemetry::shared();
        let (mut topic, mut store, mut annotations) = substrates();
        let report = CityDataPipeline::new(11, 300, 60)
            .runner(&mut topic, &mut store, &mut annotations)
            .telemetry(t.handle())
            .threads(threads)
            .run()
            .unwrap();
        (report, sctelemetry::prometheus_text(t.registry()))
    }

    #[test]
    fn report_and_telemetry_are_thread_count_independent() {
        let (serial, serial_snap) = run_with_threads(1);
        for threads in [2, 8] {
            let (par, par_snap) = run_with_threads(threads);
            assert_eq!(serial, par, "{threads}-thread report differs");
            assert_eq!(serial_snap, par_snap, "{threads}-thread snapshot differs");
        }
    }

    #[test]
    fn report_trait_mirrors_fields() {
        let (report, _, _) = run_pipeline(100, 10);
        let kv = report.kv();
        assert_eq!(kv[0], ("ingested".to_string(), 110.0));
        assert_eq!(report.to_json()["hotspots"], report.hotspots.len() as f64);
    }
}
