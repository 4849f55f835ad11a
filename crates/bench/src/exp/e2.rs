//! E2 (Fig. 2, §II-A1): the DOTD camera network — >200 cameras across nine
//! Louisiana cities. Regenerates the per-city coverage table behind the
//! Fig. 2 map.

use crate::{f1, header, table, BenchJson};
use scgeo::cameras::CameraNetwork;

pub fn run(quick: bool) -> BenchJson {
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

    let mut json = BenchJson::new("e2", quick);
    json.det_u("total_cameras", net.len() as u64)
        .det_u("cities", net.coverage_report().len() as u64);
    json
}
