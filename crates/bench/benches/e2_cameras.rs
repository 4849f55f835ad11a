//! E2 (Fig. 2, §II-A1): the DOTD camera network — >200 cameras across nine
//! Louisiana cities. Regenerates the per-city coverage table behind the
//! Fig. 2 map and measures spatial-query latency.

use criterion::{criterion_group, criterion_main, Criterion};
use scbench::{f1, header, table, BenchJson};
use scgeo::cameras::CameraNetwork;
use scgeo::GeoPoint;
use std::time::Instant;

fn regenerate_figure() {
    header(
        "E2",
        "Fig. 2 / §II-A1",
        "Camera registry: per-city coverage (paper: >200 cameras, 9 cities)",
    );
    let net = CameraNetwork::louisiana_default(42);
    let rows: Vec<Vec<String>> = net
        .coverage_report()
        .iter()
        .map(|c| {
            vec![
                c.city.clone(),
                c.cameras.to_string(),
                f1(c.corridor_km),
                f1(c.mean_spacing_m),
            ]
        })
        .collect();
    table(&["city", "cameras", "corridor_km", "mean_spacing_m"], &rows);
    println!("TOTAL cameras: {} (paper claims >200)", net.len());

    let mut json = BenchJson::new("e2", scbench::quick());
    json.det_u("total_cameras", net.len() as u64)
        .det_u("cities", net.coverage_report().len() as u64);
    let downtown = GeoPoint::new(30.4515, -91.1871);
    let start = Instant::now();
    for _ in 0..200 {
        std::hint::black_box(net.nearest(downtown, 5));
    }
    json.measured(
        "nearest_200_queries_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    json.write();
}

fn bench(c: &mut Criterion) {
    regenerate_figure();
    let net = CameraNetwork::louisiana_default(42);
    let downtown = GeoPoint::new(30.4515, -91.1871);
    c.bench_function("e2/nearest_camera_k5", |b| {
        b.iter(|| net.nearest(std::hint::black_box(downtown), 5))
    });
    c.bench_function("e2/coverage_query_radius_2km", |b| {
        b.iter(|| net.within(std::hint::black_box(downtown), 2_000.0))
    });
    c.bench_function("e2/build_network", |b| {
        b.iter(|| CameraNetwork::louisiana_default(std::hint::black_box(42)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
