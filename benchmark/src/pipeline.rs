//! `data_pipeline`: the Fig. 4 batch job, collection → NoSQL storage →
//! analysis → visualization (`smartcity_core::pipeline::CityDataPipeline`).
//!
//! Untraced, the program under test is `runner(..).threads(n).run()`. The
//! traced run is this file's [`replay`] of its five stages through the
//! same public calls; `harness.replica_decision_match` says whether the
//! replay still produces the report the library does.

use std::hint::black_box;
use std::time::Instant;

use sccompute::mllib::kmeans_ctx;
use scdata::city::{OpenCityGenerator, OpenRecord, OpenRecordKind};
use scdata::waze::{WazeGenerator, WazeReport};
use scgeo::corridor::Corridor;
use scgeo::GeoPoint;
use scneural::exec::ExecCtx;
use scnosql::document::{Collection, Doc, Filter};
use scnosql::wide_column::Table;
use scpar::ScparConfig;
use scstream::{ConsumerGroup, ConsumerId, Event, Topic};
use serde_json::Value;
use smartcity_core::pipeline::{CityDataPipeline, PipelineReport};
use smartcity_core::viz::{dashboard, geojson_points, MapFeature, Series};

use crate::harness::{part_seed, timed, Budget, Metrics, Rep, ReplayTimes, Workload};
use crate::trace::{per, Off, OpDef, Probe, Trace, Tracer, HARNESS};

const PARTITIONS: u32 = 4;
const MEMTABLE_BUDGET: usize = 1_024;
const KMEANS_K: usize = 3;
const KMEANS_MAX_ITERS: usize = 25;
/// Jobs in a run, each over records of its own.
const PARTS: usize = 4;

pub struct Pipeline {
    seed: u64,
    records: usize,
    waze_reports: usize,
    warmup_events: usize,
    threads: usize,
}

struct Substrates {
    topic: Topic,
    store: Collection,
    annotations: Table,
}

impl Substrates {
    fn new() -> Self {
        let mut store = Collection::new("incidents");
        store.create_index("kind");
        Substrates {
            topic: Topic::new("raw", PARTITIONS),
            store,
            annotations: Table::new("annotations", MEMTABLE_BUDGET),
        }
    }
}

/// What a run produced, from the library's report or from the replay.
#[derive(Debug, PartialEq)]
struct Outcome {
    ingested: usize,
    stored: usize,
    annotated: usize,
    hotspots: Vec<GeoPoint>,
    geojson_features: usize,
}

impl Outcome {
    fn of(r: &PipelineReport) -> Self {
        Outcome {
            ingested: r.ingested,
            stored: r.stored,
            annotated: r.annotated,
            hotspots: r.hotspots.clone(),
            geojson_features: r.geojson["features"].as_array().map_or(0, Vec::len),
        }
    }
}

impl Pipeline {
    pub fn new(seed: u64, scale: u64, threads: usize) -> Self {
        let scale = scale as usize;
        Pipeline {
            seed,
            records: 8_000 / scale,
            waze_reports: 2_000 / scale,
            warmup_events: (10_000 / scale).max(500),
            threads,
        }
    }

    /// The library's job over `records` + `waze` events drawn from `seed`.
    fn run_library(
        &self,
        seed: u64,
        records: usize,
        waze: usize,
        on: &mut Substrates,
    ) -> PipelineReport {
        CityDataPipeline::new(seed, records, waze)
            .runner(&mut on.topic, &mut on.store, &mut on.annotations)
            .threads(self.threads)
            .run()
            .expect("generated pipeline data is always valid")
    }
}

impl Workload for Pipeline {
    type State = ();

    fn setup(&self) {
        // Inputs are generated inside the job (stage 1), so set-up is the
        // warm-up run alone.
        let n = self.warmup_events;
        let seed = part_seed(self.seed, 0);
        black_box(self.run_library(seed, n - n / 5, n / 5, &mut Substrates::new()));
    }

    fn parts(&self) -> usize {
        PARTS
    }

    fn rep(&self, _: &mut (), part: usize) -> Result<Rep, String> {
        let mut on = Substrates::new();
        let seed = part_seed(self.seed, part);
        let (report, cost) =
            timed(|| self.run_library(seed, self.records, self.waze_reports, &mut on));
        let outcome = Outcome::of(&report);
        let events = (self.records + self.waze_reports) as u64;
        if outcome.ingested as u64 != events {
            return Err(format!("ingested {} of {events} events", outcome.ingested));
        }
        Ok(Rep {
            ops: events,
            failed: (outcome.ingested - outcome.stored) as u64,
            answered_share: outcome.stored as f64 / events as f64,
            digest: format!("{outcome:?}"),
            cost,
        })
    }

    fn traced(&self, _: &mut (), seconds: f64) -> Result<(Metrics, Trace), String> {
        let mut times = ReplayTimes::default();
        let mut best = None;
        let mut reference = None;
        let mut budget = Budget::new(0.9 * seconds);
        while budget.another() {
            let mut on = Substrates::new();
            let t = Instant::now();
            let report = self.run_library(
                part_seed(self.seed, 0),
                self.records,
                self.waze_reports,
                &mut on,
            );
            times.library.push(t.elapsed().as_secs_f64());
            reference = Some(Outcome::of(&report));
            drop((report, on));

            let mut on = Substrates::new();
            let t = Instant::now();
            let run = self.replay(&mut on, &mut Off);
            times.untraced.push(t.elapsed().as_secs_f64());
            drop((run, on));

            let mut on = Substrates::new();
            let mut tracer = Tracer::new("data_pipeline", &OPS, 8);
            let t = Instant::now();
            let run = self.replay(&mut on, &mut tracer);
            let traced_s = t.elapsed().as_secs_f64();
            if times.is_fastest_traced(traced_s) {
                best = Some((run, tracer.finish(), on));
            }
            times.traced.push(traced_s);
        }
        let (run, trace, on) = best.expect("at least one cycle");
        let reference = reference.expect("at least one cycle");

        let mut m = Metrics::new();
        let shares = trace.shares()?;
        let events = run.outcome.ingested as f64;
        m.put(
            "scdata.generate_ns_per_record",
            trace.busy_ns(GENERATE) as f64 / events,
        );
        m.put("scdata.share", shares["scdata"]);
        m.put("scstream.publish_ns_per_event", trace.ns_per_call(PUBLISH));
        m.put(
            "scstream.poll_commit_ns_per_event",
            (trace.busy_ns(POLL) + trace.busy_ns(COMMIT)) as f64 / events,
        );
        m.put("scstream.share", shares["scstream"]);
        let sizes = on.topic.partition_sizes();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        m.put(
            "scstream.partition_skew",
            *sizes.iter().max().expect("four partitions") as f64 / mean,
        );
        m.put("scnosql.insert_ns_per_doc", trace.ns_per_call(INSERT));
        m.put("scnosql.indexed_count_ns_per_op", trace.ns_per_call(COUNT));
        m.put(
            "scnosql.table_put_ns_per_cell",
            trace.ns_per_call(TABLE_PUT),
        );
        m.put("scnosql.share", shares["scnosql"]);
        m.put("scnosql.sstables", on.annotations.stats().runs as f64);
        m.put(
            "sccompute.kmeans_ns_per_point_iter",
            per(
                trace.busy_ns(KMEANS) as f64,
                (run.mined_points * run.kmeans_iterations) as f64,
            ),
        );
        m.put("sccompute.share", shares["sccompute"]);
        m.put(
            "smartcity-core.viz_ns_per_feature",
            per(
                trace.busy_ns(VIZ) as f64,
                run.outcome.geojson_features as f64,
            ),
        );
        m.put("smartcity-core.share", shares["smartcity-core"]);
        m.put("harness.remainder_share", shares[HARNESS]);

        times.put_metrics(&mut m, run.outcome == reference);
        Ok((m, trace))
    }
}

// --- The replay. -------------------------------------------------------------

const GENERATE: usize = 0;
const ENCODE: usize = 1;
const PUBLISH: usize = 2;
const POLL: usize = 3;
const DECODE: usize = 4;
const INSERT: usize = 5;
const COMMIT: usize = 6;
const FIND: usize = 7;
const KMEANS: usize = 8;
const COUNT: usize = 9;
const TABLE_PUT: usize = 10;
const VIZ: usize = 11;

static OPS: [OpDef; 12] = [
    OpDef {
        layer: "scdata",
        name: "scdata.generate",
    },
    OpDef {
        layer: "smartcity-core",
        name: "smartcity-core.encode_events",
    },
    OpDef {
        layer: "scstream",
        name: "scstream.publish",
    },
    OpDef {
        layer: "scstream",
        name: "scstream.poll",
    },
    OpDef {
        layer: "smartcity-core",
        name: "smartcity-core.event_to_doc",
    },
    OpDef {
        layer: "scnosql",
        name: "scnosql.insert",
    },
    OpDef {
        layer: "scstream",
        name: "scstream.commit",
    },
    OpDef {
        layer: "scnosql",
        name: "scnosql.find",
    },
    OpDef {
        layer: "sccompute",
        name: "sccompute.kmeans",
    },
    OpDef {
        layer: "scnosql",
        name: "scnosql.indexed_count",
    },
    OpDef {
        layer: "scnosql",
        name: "scnosql.table_put",
    },
    OpDef {
        layer: "smartcity-core",
        name: "smartcity-core.viz",
    },
];

struct Replayed {
    outcome: Outcome,
    mined_points: usize,
    kmeans_iterations: usize,
}

// The three private encoders of `smartcity_core::pipeline`, restated. They
// are that crate's logic, so their time is booked to `smartcity-core`.

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

impl Pipeline {
    /// The same job as [`Pipeline::run_library`], stage for stage.
    fn replay<P: Probe>(&self, on: &mut Substrates, probe: &mut P) -> Replayed {
        let Substrates {
            topic,
            store,
            annotations,
        } = on;
        let par = ScparConfig::with_threads(self.threads);
        // The first job of the run, like the library's side of the traced run.
        let seed = part_seed(self.seed, 0);

        probe.begin("ingest", None);
        let i10 = Corridor::new(
            "I-10",
            vec![GeoPoint::new(30.40, -91.30), GeoPoint::new(30.47, -91.00)],
        );
        let city = probe.time(GENERATE, || {
            OpenCityGenerator::new(seed).stream(self.records)
        });
        for event in probe.time(ENCODE, || scpar::par_map(&par, &city, record_event)) {
            probe.time(PUBLISH, || topic.publish(event));
        }
        let waze = probe.time(GENERATE, || {
            WazeGenerator::new(seed.wrapping_add(1)).stream(&i10, self.waze_reports)
        });
        for event in probe.time(ENCODE, || scpar::par_map(&par, &waze, waze_event)) {
            probe.time(PUBLISH, || topic.publish(event));
        }
        let ingested = topic.total_events();
        probe.end();

        probe.begin("store", None);
        let mut group = ConsumerGroup::new("storage-writers", topic.partition_count());
        group.join(ConsumerId(0));
        loop {
            let batch = probe.time(POLL, || group.poll(ConsumerId(0), topic, 256));
            if batch.is_empty() {
                break;
            }
            for (pid, offset, event) in batch {
                if let Some(doc) = probe.time(DECODE, || event_to_doc(&event)) {
                    probe
                        .time(INSERT, || store.insert(doc))
                        .expect("generated docs are valid");
                }
                probe.time(COMMIT, || group.commit(pid, offset));
            }
        }
        let stored = store.len();
        probe.end();

        probe.begin("mine", None);
        let crime_points: Vec<Vec<f64>> = probe
            .time(FIND, || {
                store.find(&Filter::Or(vec![
                    Filter::Eq("kind".into(), Doc::Str("CrimeIncident".into())),
                    Filter::Eq("kind".into(), Doc::Str("EmergencyCall".into())),
                ]))
            })
            .expect("valid filter")
            .iter()
            .filter_map(|(_, d)| {
                Some(vec![
                    d.path("geo.lat")?.as_f64()?,
                    d.path("geo.lon")?.as_f64()?,
                ])
            })
            .collect();
        let mined_points = crime_points.len();
        let mut kmeans_iterations = 0;
        let hotspots: Vec<GeoPoint> = if mined_points >= KMEANS_K {
            let ctx = ExecCtx::serial().with_par(par);
            let model = probe.time(KMEANS, || {
                kmeans_ctx(&crime_points, KMEANS_K, KMEANS_MAX_ITERS, seed, &ctx)
            });
            kmeans_iterations = model.iterations;
            model
                .centroids
                .iter()
                .map(|c| GeoPoint::new(c[0], c[1]))
                .collect()
        } else {
            Vec::new()
        };
        probe.end();

        probe.begin("annotate", None);
        let mut annotated = 0;
        // The library fans these reads out with `par_map`; here they run one
        // after another so that each can be timed.
        let mut kind_counts: Vec<(String, f64)> = Vec::new();
        for kind in OpenRecordKind::ALL {
            let kind_name = format!("{kind:?}");
            let filter = Filter::Eq("kind".into(), Doc::Str(kind_name.clone()));
            let count = probe
                .time(COUNT, || store.count(&filter))
                .expect("valid filter");
            let (row, value) = (
                format!("counts#{kind_name}"),
                count.to_string().into_bytes(),
            );
            probe
                .time(TABLE_PUT, || annotations.put(&row, "stats", "count", value))
                .expect("valid cell");
            annotated += 1;
            kind_counts.push((kind_name, count as f64));
        }
        for (i, h) in hotspots.iter().enumerate() {
            let (row, value) = (
                format!("hotspot#{i}"),
                format!("{:.5},{:.5}", h.lat(), h.lon()).into_bytes(),
            );
            probe
                .time(TABLE_PUT, || annotations.put(&row, "geo", "latlon", value))
                .expect("valid cell");
            annotated += 1;
        }
        probe.end();

        probe.begin("visualize", None);
        let geojson_features = probe.time(VIZ, || {
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
            black_box(dash);
            geojson["features"].as_array().map_or(0, Vec::len)
        });
        probe.end();

        Replayed {
            outcome: Outcome {
                ingested,
                stored,
                annotated,
                hotspots,
                geojson_features,
            },
            mined_points,
            kmeans_iterations,
        }
    }
}
