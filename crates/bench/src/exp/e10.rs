//! E10 (§II-C3): distributed crime hot-spot mining with k-means on the
//! dataflow engine, what each partition count shuffles (the timed tables
//! time the same runs), and the D3-feed exports.

use crate::{f3, header, table, BenchJson};
use sccompute::dataflow::Dataset;
use sccompute::mllib::kmeans;
use scdata::city::{OpenCityGenerator, OpenRecordKind};
use smartcity_core::viz::{dashboard, geojson_points, svg_bar_chart, MapFeature, Series};

/// The partition counts the table sweeps.
pub const PARTITIONS: [usize; 4] = [1, 2, 4, 8];

/// The crime and 911 locations of the seeded city stream, as (lat, lon).
pub fn crime_points(quick: bool) -> Vec<Vec<f64>> {
    let mut gen = OpenCityGenerator::new(31);
    gen.stream(if quick { 1_500 } else { 4_000 })
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

pub fn run(quick: bool) -> BenchJson {
    header(
        "E10",
        "§II-C3",
        "Distributed k-means crime hot-spot mining + visualization export",
    );
    let points = crime_points(quick);
    println!("crime/911 points: {}", points.len());
    let mut json = BenchJson::new("e10", quick);
    json.det_u("crime_points", points.len() as u64);

    // Partition scaling (the 'distributed' knob).
    let mut rows = Vec::new();
    for parts in PARTITIONS {
        let ds = Dataset::from_vec(points.clone(), parts);
        let model = kmeans(&ds, 3, 25, 32);
        let stats = ds.stats();
        if parts == 4 {
            json.det_f("inertia_p4", model.inertia)
                .det_u("iterations_p4", model.iterations as u64)
                .det_u("shuffled_records_p4", stats.shuffled_records);
        }
        rows.push(vec![
            parts.to_string(),
            f3(model.inertia),
            model.iterations.to_string(),
            stats.shuffle_stages.to_string(),
            stats.shuffled_records.to_string(),
        ]);
    }
    table(
        &[
            "partitions",
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
    json
}
