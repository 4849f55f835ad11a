//! E1 (Fig. 1 + Fig. 4): end-to-end pipeline — ingest → NoSQL → analysis →
//! visualization. Regenerates the per-stage accounting rows; the `secs` and
//! `kev/s` columns time each run with `Instant`.

use scbench::{f3, header, table, BenchJson};
use scnosql::document::Collection;
use scnosql::wide_column::Table;
use scstream::Topic;
use smartcity_core::pipeline::CityDataPipeline;
use std::time::Instant;

fn regenerate_figure() {
    header(
        "E1",
        "Fig. 1 + Fig. 4",
        "Per-stage pipeline accounting at increasing ingest volumes",
    );
    let quick = scbench::quick();
    let sizes: &[usize] = if quick {
        &[200, 500]
    } else {
        &[200, 500, 1000, 2000]
    };
    let mut json = BenchJson::new("e1", quick);
    let mut rows = Vec::new();
    for &records in sizes {
        let pipeline = CityDataPipeline::new(1, records, records / 5);
        let mut topic = Topic::new("raw", 4);
        let mut store = Collection::new("incidents");
        store.create_index("kind");
        let mut annotations = Table::new("annotations", 4096);
        let start = Instant::now();
        let report = pipeline
            .runner(&mut topic, &mut store, &mut annotations)
            .run()
            .expect("generated pipeline data is always valid");
        let secs = start.elapsed().as_secs_f64();
        json.det_u(&format!("ingested_{records}"), report.ingested as u64)
            .det_u(&format!("stored_{records}"), report.stored as u64)
            .det_u(&format!("annotated_{records}"), report.annotated as u64)
            .det_u(&format!("hotspots_{records}"), report.hotspots.len() as u64);
        rows.push(vec![
            records.to_string(),
            report.ingested.to_string(),
            report.stored.to_string(),
            report.annotated.to_string(),
            report.hotspots.len().to_string(),
            f3(secs),
            f3(report.ingested as f64 / secs / 1000.0),
        ]);
    }
    json.write();
    table(
        &[
            "city_records",
            "ingested",
            "stored",
            "annotated",
            "hotspots",
            "secs",
            "kev/s",
        ],
        &rows,
    );
}

fn main() {
    regenerate_figure();
}
