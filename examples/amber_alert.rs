//! AMBER-alert vehicle tracking (paper §IV-A1).
//!
//! "Identifying details of vehicles (e.g., make, model, year, color) from
//! video streams can be critical when tracking cars that are involved in
//! criminal activities (e.g., tracking cars described in AMBER Alerts)."
//!
//! This example trains the early-exit detector, then scans scenes from the
//! cameras nearest a corridor for a specific wanted vehicle class, printing
//! where it was spotted and which tier (device/server) produced each
//! detection.
//!
//! ```sh
//! cargo run --release --example amber_alert
//! ```

use scdata::vehicles::{VehicleCatalog, VehicleClassId};
use scdata::video::FrameGenerator;
use scneural::early_exit::ExitPoint;
use smartcity::core::apps::vehicle::{SceneDetector, VehicleClassifier};
use smartcity::core::infrastructure::Cyberinfrastructure;

fn main() {
    let classes = 8;
    let catalog = VehicleCatalog::generate(classes, 7);
    let wanted = VehicleClassId(3);
    println!(
        "AMBER alert issued for: {}",
        catalog.label(wanted).expect("class exists")
    );

    // Train the split Tiny/Full classifier on labelled crops.
    let mut gen = FrameGenerator::new(catalog.clone(), 16, 16, 8).noise(0.01);
    let (frames, labels) = gen.dataset(classes, 20);
    let mut clf = VehicleClassifier::new(classes, 16, 0.80, 9);
    println!(
        "training early-exit classifier on {} crops ...",
        frames.len()
    );
    clf.train(&frames, &labels, 60, 0.01);
    let (acc, offload) = clf.evaluate(&frames, &labels);
    println!("train accuracy {acc:.3}, offload fraction {offload:.3}");

    // Scan scenes observed by cameras along I-10 through Baton Rouge.
    let infra = Cyberinfrastructure::new(10);
    let downtown = scgeo::GeoPoint::new(30.4515, -91.1871);
    let cameras = infra.cameras().nearest(downtown, 6);
    let mut detector = SceneDetector::new(clf, 0.15);
    let mut scene_gen = FrameGenerator::new(catalog.clone(), 48, 48, 11).noise(0.01);

    let mut localized = 0;
    let mut total_truths = 0;
    let mut class_hits = 0;
    let mut edge_exits = 0;
    let mut server_exits = 0;
    for cam in cameras {
        let (scene, truths) = scene_gen.scene(2);
        let detections = detector.detect(&scene);
        total_truths += truths.len();
        for d in &detections {
            match d.exit {
                ExitPoint::Local => edge_exits += 1,
                ExitPoint::Server => server_exits += 1,
            }
        }
        for t in &truths {
            // Localization: any detection overlapping this vehicle.
            let best = detections
                .iter()
                .filter(|d| d.bbox.iou(&t.bbox) > 0.1)
                .max_by(|a, b| a.bbox.iou(&t.bbox).total_cmp(&b.bbox.iou(&t.bbox)));
            if let Some(d) = best {
                localized += 1;
                let right_class = d.class == t.class;
                if right_class {
                    class_hits += 1;
                }
                if t.class == wanted {
                    println!(
                        "  SIGHTING at {} ({}, {}): bbox ({},{})-({},{}), conf {:.2}, \
                         classified as {} ({})",
                        cam.id,
                        cam.city,
                        cam.corridor,
                        d.bbox.x0,
                        d.bbox.y0,
                        d.bbox.x1,
                        d.bbox.y1,
                        d.confidence,
                        catalog.label(d.class).unwrap_or_default(),
                        if right_class { "MATCH" } else { "mismatch" },
                    );
                }
            }
        }
        println!("{}: {} detections in scene", cam.id, detections.len());
    }
    println!(
        "\nlocalization recall: {localized}/{total_truths}; class matches on localized: \
         {class_hits}/{localized}; exits: {edge_exits} edge / {server_exits} server"
    );
}
