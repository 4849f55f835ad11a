//! Quickstart: stand up the cyberinfrastructure, archive a camera segment,
//! run the Fig. 4 pipeline end-to-end, and print a health report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use smartcity::core::infrastructure::Cyberinfrastructure;
use smartcity::core::pipeline::CityDataPipeline;

fn main() {
    // 1. Build the four-layer infrastructure (Fig. 1).
    let mut infra = Cyberinfrastructure::new(42);
    println!("== Smart-city cyberinfrastructure ==");
    let h = infra.health_report();
    println!(
        "layers={} cameras={} fog_nodes={} datanodes={}/{}",
        h.layers, h.cameras, h.fog_nodes, h.datanodes_alive, h.datanodes_total
    );

    // 2. Data layer: archive a synthetic video segment from the nearest
    //    camera to downtown Baton Rouge into the DFS (3-way replicated).
    let downtown = scgeo::GeoPoint::new(30.4515, -91.1871);
    let cam = infra.cameras().nearest(downtown, 1)[0].id;
    let segment = vec![0xAB; 256 * 1024];
    let path = infra
        .archive_video_segment(cam, 1, &segment)
        .expect("archive segment");
    println!("archived {} bytes from {cam} at {path}", segment.len());

    // 3. Software layer: run the collection → storage → analysis →
    //    visualization pipeline (Fig. 4) against the infrastructure's own
    //    topic, document store, and annotation table.
    let pipeline = CityDataPipeline::new(42, 400, 80);
    let (topic, store, annotations) = infra.pipeline_stores();
    let report = pipeline
        .runner(topic, store, annotations)
        .run()
        .expect("generated pipeline data is always valid");
    println!(
        "pipeline: ingested={} stored={} annotated={} hotspots={}",
        report.ingested,
        report.stored,
        report.annotated,
        report.hotspots.len()
    );
    for (i, hs) in report.hotspots.iter().enumerate() {
        println!("  hotspot {i}: {hs}");
    }
    println!(
        "dashboard KPIs: {}",
        serde_json::to_string(&report.dashboard["kpis"]).expect("serializable")
    );
    println!(
        "geojson features: {}",
        report.geojson["features"].as_array().map_or(0, Vec::len)
    );

    // 4. Fault tolerance: lose two datanodes and read the segment back.
    infra.dfs_mut().kill_node(0).expect("node exists");
    infra.dfs_mut().kill_node(1).expect("node exists");
    let recovered = infra.dfs().read(&path).expect("replicated read");
    assert_eq!(recovered.len(), segment.len());
    println!("segment readable after 2 datanode failures ✔");
}
