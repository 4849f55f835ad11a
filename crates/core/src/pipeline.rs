//! The Fig. 4 data pipeline: collection → NoSQL storage → analysis →
//! visualization.
//!
//! "The raw input data are collected from multiple sources and stored in
//! NoSQL databases for analysis in analysis servers. Analysis servers run
//! different deep learning model\[s\] for inference and the result of inference
//! will be sent to the web server to be visualized on our website."

use sccompute::mllib::kmeans_ctx;
use scdata::city::{OpenCityGenerator, OpenRecord, OpenRecordKind};
use scdata::waze::{WazeGenerator, WazeReport};
use scgeo::corridor::Corridor;
use scgeo::GeoPoint;
use scnosql::document::{Collection, Doc, Filter};
use scnosql::wide_column::Table;
use scnosql::NosqlError;
use scpar::ScparConfig;
use scstream::{ConsumerGroup, ConsumerId, Event, Topic};
use sctelemetry::{
    Report, SpanContext, Telemetry, TelemetryHandle, TraceId, WorkDelta, STREAM_PIPELINE,
};
use serde_json::Value;
use simclock::SimTime;

use crate::viz::{dashboard, geojson_points, telemetry_panel, MapFeature, Series};

/// Metric name of the events-ingested counter.
pub const METRIC_INGESTED: &str = "smartcity_pipeline_ingested_total";
/// Metric name of the documents-stored counter.
pub const METRIC_STORED: &str = "smartcity_pipeline_stored_total";
/// Metric name of the annotation-cells counter.
pub const METRIC_ANNOTATED: &str = "smartcity_pipeline_annotated_total";
/// Metric name of the hot-spots gauge.
pub const METRIC_HOTSPOTS: &str = "smartcity_pipeline_hotspots";

/// End-of-run accounting for one pipeline execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Events published into the raw topic.
    pub ingested: usize,
    /// Documents persisted in the document store.
    pub stored: usize,
    /// Annotation cells written to the wide-column table.
    pub annotated: usize,
    /// Crime hot-spot centroids found by the mining stage.
    pub hotspots: Vec<GeoPoint>,
    /// The dashboard JSON the web layer would serve.
    pub dashboard: Value,
    /// The incident GeoJSON layer.
    pub geojson: Value,
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
    /// Defaults: telemetry disabled, no dashboard panel, and the ambient
    /// [`ScparConfig`] (`SCPAR_THREADS` / available parallelism) for the
    /// fanned-out stages.
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
            panel: None,
            par: ScparConfig::from_env(),
        }
    }

    /// Pipeline body behind [`RunOptions::run`]. Stage spans use a simulated
    /// clock advancing one microsecond per item handled, so identical seeds
    /// yield identical traces; the fanned-out stages chunk independently of
    /// the thread count, so reports and telemetry are too.
    fn run_with(
        &self,
        topic: &mut Topic,
        store: &mut Collection,
        annotations: &mut Table,
        telemetry: &TelemetryHandle,
        par: &ScparConfig,
    ) -> Result<PipelineReport, NosqlError> {
        // One causal trace per run: a `pipeline/run` root whose children are
        // the five stage spans, with ids derived from the seed so identical
        // seeds name identical traces at any thread count.
        let root_ctx = SpanContext::root(TraceId::derive(self.seed, STREAM_PIPELINE, 0));
        let mut sim_cursor: u64 = 0;
        let mut stage_seq: u64 = 0;
        let mut stage_span = |name: &str, items: usize, cursor: &mut u64| {
            let start = *cursor;
            *cursor += items as u64 + 1;
            telemetry.span_in(
                "smartcity",
                name,
                SimTime::from_micros(start),
                SimTime::from_micros(*cursor),
                root_ctx.child(stage_seq),
            );
            // One batch-aggregated work delta per stage; the span name
            // doubles as the kernel name (`pipeline/<stage>`).
            telemetry.work(name, WorkDelta::items(items as u64));
            stage_seq += 1;
        };

        // 1. Collection: raw sources → topic. Event construction (JSON
        //    serialization) fans out; publication stays serial and ordered.
        let mut city_gen = OpenCityGenerator::new(self.seed);
        let city_records = city_gen.stream(self.records);
        for event in scpar::par_map(par, &city_records, Self::record_event) {
            topic.publish(event);
        }
        let i10 = Corridor::new(
            "I-10",
            vec![GeoPoint::new(30.40, -91.30), GeoPoint::new(30.47, -91.00)],
        );
        let mut waze_gen = WazeGenerator::new(self.seed.wrapping_add(1));
        let waze_reports = waze_gen.stream(&i10, self.waze_reports);
        for event in scpar::par_map(par, &waze_reports, Self::waze_event) {
            topic.publish(event);
        }
        let ingested = topic.total_events();
        telemetry.counter_add(
            METRIC_INGESTED,
            "events published into the raw topic",
            ingested as u64,
        );
        stage_span("pipeline/ingest", ingested, &mut sim_cursor);

        // 2. Storage: consumer group drains the topic into the document
        //    store with committed offsets (at-least-once; dedup by id is the
        //    store's natural upsert semantics — here keys are unique).
        let mut group = ConsumerGroup::new("storage-writers", topic.partition_count())
            .with_telemetry(telemetry.clone());
        group.join(ConsumerId(0));
        loop {
            let batch = group.poll(ConsumerId(0), topic, 256);
            if batch.is_empty() {
                break;
            }
            for (pid, offset, event) in batch {
                if let Some(doc) = Self::event_to_doc(&event) {
                    store.insert(doc)?;
                }
                group.commit(pid, offset);
            }
        }
        let stored = store.len();
        telemetry.counter_add(
            METRIC_STORED,
            "documents persisted in the document store",
            stored as u64,
        );
        stage_span("pipeline/store", stored, &mut sim_cursor);

        // 3. Analysis: mine crime hot-spots with parallel-assignment k-means
        //    over the stored crime/911 documents, and annotate per-kind
        //    counts.
        let crime_points: Vec<Vec<f64>> = store
            .find(&Filter::Or(vec![
                Filter::Eq("kind".into(), Doc::Str("CrimeIncident".into())),
                Filter::Eq("kind".into(), Doc::Str("EmergencyCall".into())),
            ]))?
            .iter()
            .filter_map(|(_, d)| {
                Some(vec![
                    d.path("geo.lat")?.as_f64()?,
                    d.path("geo.lon")?.as_f64()?,
                ])
            })
            .collect();
        let mined_items = crime_points.len();
        let hotspots: Vec<GeoPoint> = if crime_points.len() >= 3 {
            let ctx = scneural::exec::ExecCtx::serial()
                .with_par(*par)
                .with_telemetry(telemetry.clone());
            let model = kmeans_ctx(&crime_points, 3, 25, self.seed, &ctx);
            model
                .centroids
                .iter()
                .map(|c| GeoPoint::new(c[0], c[1]))
                .collect()
        } else {
            Vec::new()
        };
        telemetry.gauge_set(
            METRIC_HOTSPOTS,
            "crime hot-spot centroids mined",
            hotspots.len() as i64,
        );
        stage_span("pipeline/mine", mined_items, &mut sim_cursor);

        // Per-kind counts fan out as parallel index reads over the shared
        // store (`&Collection` queries are thread-safe); the cell writes
        // stay serial and ordered.
        let mut annotated = 0;
        let counts = scpar::par_map(par, &OpenRecordKind::ALL, |kind| {
            let kind_name = format!("{kind:?}");
            let count = store.count(&Filter::Eq("kind".into(), Doc::Str(kind_name.clone())));
            (kind_name, count)
        });
        let mut kind_counts: Vec<(String, f64)> = Vec::new();
        for (kind_name, count) in counts {
            let count = count?;
            annotations.put(
                &format!("counts#{kind_name}"),
                "stats",
                "count",
                count.to_string().into_bytes(),
            )?;
            annotated += 1;
            kind_counts.push((kind_name, count as f64));
        }
        for (i, h) in hotspots.iter().enumerate() {
            annotations.put(
                &format!("hotspot#{i}"),
                "geo",
                "latlon",
                format!("{:.5},{:.5}", h.lat(), h.lon()).into_bytes(),
            )?;
            annotated += 1;
        }
        telemetry.counter_add(
            METRIC_ANNOTATED,
            "cells written to the annotation table",
            annotated as u64,
        );
        stage_span("pipeline/annotate", annotated, &mut sim_cursor);

        // 4. Visualization: dashboard JSON + incident GeoJSON.
        let features: Vec<MapFeature> = store
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
        let dash = dashboard(
            &[
                ("ingested", ingested as f64),
                ("stored", stored as f64),
                ("hotspots", hotspots.len() as f64),
            ],
            &[Series {
                name: "records_by_kind".into(),
                points: kind_counts
                    .iter()
                    .enumerate()
                    .map(|(i, (_, c))| (i as f64, *c))
                    .collect(),
            }],
        );
        stage_span("pipeline/visualize", features.len(), &mut sim_cursor);
        telemetry.span_in(
            "smartcity",
            "pipeline/run",
            SimTime::ZERO,
            SimTime::from_micros(sim_cursor),
            root_ctx,
        );

        Ok(PipelineReport {
            ingested,
            stored,
            annotated,
            hotspots,
            dashboard: dash,
            geojson,
        })
    }
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
    panel: Option<&'a std::sync::Arc<Telemetry>>,
    par: ScparConfig,
}

impl<'a> RunOptions<'a> {
    /// Routes per-stage counters and sim-time spans to `telemetry`.
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Records into `recorder` *and* embeds a `"telemetry"` dashboard panel
    /// built from its registry (the old `run_recorded` behaviour).
    pub fn recorder(mut self, recorder: &'a std::sync::Arc<Telemetry>) -> Self {
        self.telemetry = recorder.handle();
        self.panel = Some(recorder);
        self
    }

    /// Caps the worker pool used by the fanned-out stages at `threads`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.par = ScparConfig::with_threads(threads);
        self
    }

    /// Executes the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates [`NosqlError`] from the storage and annotation stages
    /// (e.g. a malformed document rejected by the store).
    pub fn run(self) -> Result<PipelineReport, NosqlError> {
        let mut report = self.pipeline.run_with(
            self.topic,
            self.store,
            self.annotations,
            &self.telemetry,
            &self.par,
        )?;
        if let Some(recorder) = self.panel {
            if let Value::Object(dash) = &mut report.dashboard {
                dash.insert(
                    "telemetry".to_string(),
                    telemetry_panel(recorder.registry()),
                );
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pipeline(records: usize, waze: usize) -> (PipelineReport, Collection, Table) {
        let mut topic = Topic::new("raw", 4);
        let mut store = Collection::new("incidents");
        store.create_index("kind");
        let mut annotations = Table::new("annotations", 1024);
        let report = CityDataPipeline::new(11, records, waze)
            .runner(&mut topic, &mut store, &mut annotations)
            .run()
            .unwrap();
        (report, store, annotations)
    }

    #[test]
    fn every_event_lands_in_store() {
        let (report, store, _) = run_pipeline(200, 50);
        assert_eq!(report.ingested, 250);
        assert_eq!(report.stored, 250);
        assert_eq!(store.len(), 250);
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
        let mut topic = Topic::new("raw", 4);
        let mut store = Collection::new("incidents");
        store.create_index("kind");
        let mut annotations = Table::new("annotations", 1024);
        let report = CityDataPipeline::new(11, 200, 50)
            .runner(&mut topic, &mut store, &mut annotations)
            .recorder(&t)
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

        // Plain KPIs unchanged; the dashboard gains the telemetry panel.
        assert_eq!(report.dashboard["kpis"]["ingested"], 250.0);
        let rows = report.dashboard["telemetry"]["metrics"].as_array().unwrap();
        assert!(rows.len() >= 5, "panel covers the pipeline metrics");

        // A `pipeline/run` root plus five ordered stage spans with a
        // deterministic sim-time clock (trace order is (at, target, name),
        // so the t=0 root sorts between `ingest` and `store`).
        let trace = t.trace();
        let spans: Vec<_> = trace
            .iter()
            .filter_map(|r| match r {
                sctelemetry::TraceRecord::Span(s) => Some(s.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
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
        let root = trace
            .iter()
            .find_map(|r| match r {
                sctelemetry::TraceRecord::Span(s) if s.name == "pipeline/run" => s.ctx,
                _ => None,
            })
            .expect("root span carries a context");
        assert_eq!(root.trace, TraceId::derive(11, STREAM_PIPELINE, 0));
        for r in &trace {
            if let sctelemetry::TraceRecord::Span(s) = r {
                if s.name != "pipeline/run" {
                    let ctx = s.ctx.expect("stage spans carry contexts");
                    assert_eq!(ctx.parent, Some(root.span));
                }
            }
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
        let mut topic = Topic::new("raw", 4);
        let mut store = Collection::new("incidents");
        store.create_index("kind");
        let mut annotations = Table::new("annotations", 1024);
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
