//! E4 (Fig. 5, §IV-A1): the early-exit vehicle classifier's
//! confidence-threshold sweep — fraction offloaded, accuracy, and the fog
//! latency the measured escalation rate implies — then Fig. 5's push of the
//! trained split model to a freshly built device.

use crate::{f3, header, table, BenchJson};
use scdata::vehicles::VehicleCatalog;
use scdata::video::FrameGenerator;
use scfog::{FogSimulator, Placement, Topology, Workload};
use smartcity_core::apps::vehicle::VehicleClassifier;

/// Vehicle classes the classifier tells apart.
const CLASSES: usize = 6;

fn trained_classifier(quick: bool) -> (VehicleClassifier, Vec<scdata::video::Frame>, Vec<usize>) {
    let catalog = VehicleCatalog::generate(CLASSES, 4);
    let mut gen = FrameGenerator::new(catalog.clone(), 16, 16, 5).noise(0.02);
    let (frames, labels) = gen.dataset(CLASSES, if quick { 8 } else { 15 });
    let mut clf = VehicleClassifier::new(CLASSES, 16, 0.5, 6);
    clf.train(&frames, &labels, if quick { 25 } else { 50 }, 0.01);
    // Held-out evaluation set at a harder noise level: the tiny local head
    // degrades more than the full server model, so the accuracy column
    // rises with the threshold (Fig. 5's quality/efficiency trade-off).
    let mut test_gen = FrameGenerator::new(catalog, 16, 16, 99).noise(0.10);
    let (test_frames, test_labels) = test_gen.dataset(CLASSES, 12);
    (clf, test_frames, test_labels)
}

pub fn run(quick: bool) -> BenchJson {
    let (mut clf, frames, labels) = trained_classifier(quick);
    header(
        "E4",
        "Fig. 5 / §IV-A1",
        "Confidence-threshold sweep: offload fraction, accuracy, implied fog latency",
    );
    let sim = FogSimulator::new(Topology::four_tier(8, 2, 1));
    let mut json = BenchJson::new("e4", quick);
    let mut rows = Vec::new();
    let mut at_0_5 = None;
    for &threshold in &[0.0f32, 0.3, 0.5, 0.7, 0.9, 0.99, 1.01] {
        clf.set_threshold(threshold);
        let (acc, offload) = clf.evaluate(&frames, &labels);
        if (threshold - 0.5).abs() < 1e-6 {
            json.det_f("offload_at_0_5", offload)
                .det_f("accuracy_at_0_5", acc);
            at_0_5 = Some((acc, offload));
        }
        let w = Workload::with_escalation(200, 100_000, 20.0, offload, 7);
        let fog = sim
            .runner(&w)
            .placement(Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 6 * 8 * 8 * 4,
            })
            .run();
        rows.push(vec![
            format!("{threshold:.2}"),
            f3(offload),
            f3(acc),
            f3(fog.mean_latency_s),
            f3(fog.fog_to_server_bytes as f64 / 1e6),
        ]);
    }
    table(
        &[
            "threshold",
            "offload_frac",
            "accuracy",
            "fog_mean_s",
            "fog_to_srv_MB",
        ],
        &rows,
    );
    println!(
        "local params: {}  server params: {}",
        clf.network_mut().local_param_count(),
        clf.network_mut().server_param_count()
    );
    json.det_u("local_params", clf.network_mut().local_param_count() as u64)
        .det_u(
            "server_params",
            clf.network_mut().server_param_count() as u64,
        );

    // Fig. 5: the analysis servers push both halves to a device whose own
    // weights came from another seed; it must decide exactly as trained.
    let (device, server) = (clf.export_device_model(), clf.export_server_model());
    let mut deployed = VehicleClassifier::new(CLASSES, 16, 0.5, 60);
    deployed
        .import_models(&device, &server)
        .expect("the same architecture");
    let (acc, offload) = deployed.evaluate(&frames, &labels);
    println!(
        "deployed: device blob {} B, server blob {} B, offload {} accuracy {} at 0.50",
        device.len(),
        server.len(),
        f3(offload),
        f3(acc)
    );
    assert_eq!(
        at_0_5.map(|(a, o)| (a.to_bits(), o.to_bits())),
        Some((acc.to_bits(), offload.to_bits())),
        "the deployed model decides as the trained one"
    );
    json.det_u("device_model_bytes", device.len() as u64)
        .det_u("server_model_bytes", server.len() as u64)
        .det_f("deployed_offload_at_0_5", offload)
        .det_f("deployed_accuracy_at_0_5", acc);
    json
}
