//! E1 (Fig. 1 + Fig. 4): end-to-end pipeline — ingest → NoSQL → analysis →
//! visualization. Regenerates the per-stage accounting rows; the timed
//! tables time the same runs with `Instant`.

use crate::{header, table, BenchJson};
use scnosql::document::Collection;
use scnosql::wide_column::Table;
use scstream::Topic;
use smartcity_core::pipeline::{CityDataPipeline, PipelineReport};

/// The ingest volumes the table sweeps.
pub fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[200, 500]
    } else {
        &[200, 500, 1000, 2000]
    }
}

/// One Fig. 4 pipeline run over `records` city records.
pub fn pipeline(records: usize) -> PipelineReport {
    let pipeline = CityDataPipeline::new(1, records, records / 5);
    let mut topic = Topic::new("raw", 4);
    let mut store = Collection::new("incidents");
    store.create_index("kind");
    let mut annotations = Table::new("annotations", 4096);
    pipeline
        .runner(&mut topic, &mut store, &mut annotations)
        .run()
        .expect("generated pipeline data is always valid")
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E1",
        "Fig. 1 + Fig. 4",
        "Per-stage pipeline accounting at increasing ingest volumes",
    );
    let mut json = BenchJson::new("e1", quick);
    let mut rows = Vec::new();
    for &records in sizes(quick) {
        let report = pipeline(records);
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
        ]);
    }
    table(
        &[
            "city_records",
            "ingested",
            "stored",
            "annotated",
            "hotspots",
        ],
        &rows,
    );
    json
}
