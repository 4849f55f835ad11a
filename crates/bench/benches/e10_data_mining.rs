//! E10 (§II-C3): distributed crime hot-spot mining with k-means on the
//! dataflow engine, partition scaling (the `ms` column times each run with
//! `Instant`), and the D3-feed exports.

use scbench::{f3, header, table, BenchJson};
use sccompute::dataflow::Dataset;
use sccompute::mllib::kmeans;
use scdata::city::{OpenCityGenerator, OpenRecordKind};
use smartcity_core::viz::{dashboard, geojson_points, svg_bar_chart, MapFeature, Series};
use std::time::Instant;

fn crime_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut gen = OpenCityGenerator::new(seed);
    gen.stream(n)
        .into_iter()
        .filter(|r| {
            matches!(
                r.kind,
                OpenRecordKind::CrimeIncident | OpenRecordKind::EmergencyCall
            )
        })
        .map(|r| vec![r.location.lat(), r.location.lon()])
        .collect()
}

fn regenerate_figure() {
    header(
        "E10",
        "§II-C3",
        "Distributed k-means crime hot-spot mining + visualization export",
    );
    let quick = scbench::quick();
    let points = crime_points(if quick { 1_500 } else { 4_000 }, 31);
    println!("crime/911 points: {}", points.len());
    let mut json = BenchJson::new("e10", quick);
    json.det_u("crime_points", points.len() as u64);

    // Partition scaling (the 'distributed' knob).
    let mut rows = Vec::new();
    for &parts in &[1usize, 2, 4, 8] {
        let ds = Dataset::from_vec(points.clone(), parts);
        let start = Instant::now();
        let model = kmeans(&ds, 3, 25, 32);
        let secs = start.elapsed().as_secs_f64();
        let stats = ds.stats();
        if parts == 4 {
            json.det_f("inertia_p4", model.inertia)
                .det_u("iterations_p4", model.iterations as u64)
                .det_u("shuffled_records_p4", stats.shuffled_records as u64);
        }
        rows.push(vec![
            parts.to_string(),
            f3(secs * 1e3),
            f3(model.inertia),
            model.iterations.to_string(),
            stats.shuffle_stages.to_string(),
            stats.shuffled_records.to_string(),
        ]);
    }
    table(
        &[
            "partitions",
            "ms",
            "inertia",
            "iters",
            "shuffles",
            "shuffled_recs",
        ],
        &rows,
    );

    // Elbow series: inertia vs k (the chart the dashboard would draw).
    let ds = Dataset::from_vec(points.clone(), 4);
    let elbow: Vec<(f64, f64)> = (1..=6)
        .map(|k| (k as f64, kmeans(&ds, k, 25, 33).inertia))
        .collect();
    println!("\nelbow series (k, inertia): {elbow:?}");

    // Exports.
    let model = kmeans(&ds, 3, 25, 32);
    let features: Vec<MapFeature> = model
        .centroids
        .iter()
        .enumerate()
        .map(|(i, c)| MapFeature {
            location: scgeo::GeoPoint::new(c[0], c[1]),
            label: format!("hotspot-{i}"),
            category: "hotspot".into(),
        })
        .collect();
    let geo = geojson_points(&features);
    let dash = dashboard(
        &[("points", points.len() as f64), ("hotspots", 3.0)],
        &[Series {
            name: "elbow".into(),
            points: elbow,
        }],
    );
    let svg = svg_bar_chart(
        "Cluster sizes",
        &model
            .centroids
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let size = points.iter().filter(|p| model.predict(p) == i).count() as f64;
                (format!("hotspot-{i}"), size)
            })
            .collect::<Vec<_>>(),
        400,
        240,
    );
    println!(
        "exports: geojson {} features, dashboard {} bytes, svg {} bytes",
        geo["features"].as_array().unwrap().len(),
        dash.to_string().len(),
        svg.len()
    );
    json.det_u(
        "geojson_features",
        geo["features"].as_array().unwrap().len() as u64,
    );
    json.write();
}

fn main() {
    regenerate_figure();
}
