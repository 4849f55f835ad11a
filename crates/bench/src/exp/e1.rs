//! E1 (Fig. 1 + Fig. 4): end-to-end pipeline — ingest → NoSQL → analysis →
//! visualization. Regenerates the per-stage accounting rows; the timed
//! tables time the same runs with `Instant`. A second table runs §II-A4's
//! secure upload server: a year of monthly crime transfers, each purging
//! what is past the 90-day retention.

use crate::{header, table, BenchJson};
use scdata::city::{CrimeBatch, CrimeBatchGenerator};
use scdfs::DfsCluster;
use scnosql::document::Collection;
use scnosql::wide_column::Table;
use scstream::Topic;
use simclock::{SimDuration, SimTime};
use smartcity_core::pipeline::{CityDataPipeline, PipelineReport};
use smartcity_core::retention::SecureCrimeServer;

/// Seconds in a month of the upload year; the agencies upload on its
/// first day.
const MONTH_SECS: u64 = 30 * 24 * 3600;

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
    uploads(&mut json);
    json
}

/// §II-A4: twelve monthly transfers through [`SecureCrimeServer`] into the
/// DFS, purging the expired ones on each upload day.
fn uploads(json: &mut BenchJson) {
    println!("\n§II-A4 secure uploads, 90-day retention (twelve 30-day months):");
    let mut server = SecureCrimeServer::default();
    let mut dfs = DfsCluster::new(4, 2, 4096, 1).expect("a valid cluster shape");
    let mut gen = CrimeBatchGenerator::new(200, 2);
    let (mut purged, mut rows) = (0, Vec::new());
    for month in 0..12u32 {
        let start = SimTime::from_secs(u64::from(month) * MONTH_SECS);
        let batch = CrimeBatch {
            month,
            uploaded_at: start + SimDuration::from_secs(MONTH_SECS),
            records: (0..10).map(|_| gen.record(start)).collect(),
        };
        let gone = server.purge_expired(batch.uploaded_at, &mut dfs).len();
        server
            .accept_upload("Baton Rouge PD", &batch, &mut dfs)
            .expect("one upload per agency and month");
        purged += gone;
        rows.push(vec![
            month.to_string(),
            gone.to_string(),
            dfs.stats().files.to_string(),
        ]);
    }
    table(&["month", "purged", "dfs_files"], &rows);
    let retained = 12 - purged as u64;
    let files = dfs.stats().files as u64;
    assert_eq!(files, retained, "the DFS holds exactly the live uploads");
    json.det_u("uploads_retained", retained)
        .det_u("uploads_purged", purged as u64)
        .det_u("dfs_files_after_purge", files);
}
