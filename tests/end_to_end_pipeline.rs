//! Integration: the full Fig. 1 + Fig. 4 stack — infrastructure facade,
//! streaming ingestion, NoSQL storage, distributed mining, DFS archival, and
//! visualization export, all in one flow.

use smartcity::core::infrastructure::Cyberinfrastructure;
use smartcity::core::pipeline::CityDataPipeline;
use smartcity::geo::GeoPoint;

#[test]
fn four_layer_flow_end_to_end() {
    let mut infra = Cyberinfrastructure::new(100);

    // Data layer sanity: the paper's camera fleet.
    assert!(infra.cameras().len() > 200);
    assert_eq!(infra.cameras().coverage_report().len(), 9);

    // Hardware layer: archive video from the three cameras nearest downtown.
    let downtown = GeoPoint::new(30.4515, -91.1871);
    let cams: Vec<_> = infra
        .cameras()
        .nearest(downtown, 3)
        .iter()
        .map(|c| c.id)
        .collect();
    for (i, cam) in cams.iter().enumerate() {
        infra
            .archive_video_segment(*cam, i as u64, &vec![i as u8; 100_000])
            .expect("archive");
    }
    assert_eq!(infra.health_report().dfs_files, 3);

    // Software layer: pipeline run into the infrastructure's own stores.
    let pipeline = CityDataPipeline::new(100, 300, 60);
    let (topic, store, annotations) = infra.pipeline_stores();
    let report = pipeline
        .runner(topic, store, annotations)
        .run()
        .expect("generated pipeline data is always valid");
    assert_eq!(report.ingested, 360);
    assert_eq!(report.stored, 360);
    assert_eq!(report.hotspots.len(), 3);
    assert!(report.geojson["features"].as_array().unwrap().len() == 360);

    // Health report reflects everything.
    let h = infra.health_report();
    assert_eq!(h.raw_events, 360);
    assert_eq!(h.incident_docs, 360);

    // Annotations landed in the wide-column store and survive a flush.
    let annotations = infra.pipeline_stores().2;
    annotations.flush();
    assert!(annotations
        .get("counts#CrimeIncident", "stats", "count")
        .is_some());

    // Hardware layer resilience: two failures, archives still readable.
    infra.dfs_mut().kill_node(0).unwrap();
    infra.dfs_mut().kill_node(1).unwrap();
    for (i, cam) in cams.iter().enumerate() {
        let path = format!("/videos/{cam}/seg-{i:06}.bin");
        assert_eq!(infra.dfs().read(&path).unwrap().len(), 100_000);
    }

    // Re-replication heals the under-replicated blocks.
    let created = infra.dfs_mut().re_replicate();
    assert!(created > 0);
    assert_eq!(infra.dfs().stats().under_replicated, 0);
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let run = |seed: u64| {
        let mut infra = Cyberinfrastructure::new(seed);
        let pipeline = CityDataPipeline::new(seed, 150, 30);
        let (topic, store, annotations) = infra.pipeline_stores();
        pipeline
            .runner(topic, store, annotations)
            .run()
            .expect("generated pipeline data is always valid")
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.hotspots, b.hotspots);
    assert_eq!(a.dashboard, b.dashboard);
    let c = run(8);
    assert_ne!(a.hotspots, c.hotspots, "different seeds differ");
}
