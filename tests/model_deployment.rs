//! Integration: the hardware layer's model-deployment flow — train on the
//! "analysis server", export the split weights, load them onto a fresh
//! "edge device" instance, and verify bit-identical decisions.

use scdata::vehicles::VehicleCatalog;
use scdata::video::FrameGenerator;
use smartcity::core::apps::vehicle::VehicleClassifier;

#[test]
fn trained_model_deploys_to_fresh_device() {
    let classes = 4;
    let catalog = VehicleCatalog::generate(classes, 1);
    let mut gen = FrameGenerator::new(catalog, 16, 16, 2).noise(0.02);
    let (frames, labels) = gen.dataset(classes, 10);

    // Train on the analysis server.
    let mut server_side = VehicleClassifier::new(classes, 16, 0.8, 3);
    server_side.train(&frames, &labels, 40, 0.01);
    let expected: Vec<_> = server_side.classify(&frames);

    // Ship both halves to a freshly initialized device (different seed).
    let device_blob = server_side.export_device_model();
    let server_blob = server_side.export_server_model();
    let mut deployed = VehicleClassifier::new(classes, 16, 0.8, 999);
    assert_ne!(deployed.classify(&frames), expected, "fresh init differs");
    deployed
        .import_models(&device_blob, &server_blob)
        .expect("same architecture");
    assert_eq!(deployed.classify(&frames), expected, "deployment is exact");

    // The device blob is the smaller artifact (fits the edge).
    assert!(device_blob.len() < server_blob.len());
}

#[test]
fn deployment_rejects_wrong_architecture() {
    let a = VehicleClassifier::new(4, 16, 0.8, 1);
    let mut b = VehicleClassifier::new(6, 16, 0.8, 2); // different class count
    assert!(b
        .import_models(&a.export_device_model(), &a.export_server_model())
        .is_err());
}

#[test]
fn half_bad_deployment_changes_nothing() {
    let catalog = VehicleCatalog::generate(4, 1);
    let (frames, _) = FrameGenerator::new(catalog, 16, 16, 2).dataset(4, 3);
    let trained = VehicleClassifier::new(4, 16, 0.8, 5);
    let mut deployed = VehicleClassifier::new(4, 16, 0.8, 6);
    let before = deployed.classify(&frames);

    let mut bad_server = trained.export_server_model();
    bad_server.truncate(bad_server.len() / 2);
    assert!(deployed
        .import_models(&trained.export_device_model(), &bad_server)
        .is_err());
    assert_eq!(
        deployed.classify(&frames),
        before,
        "the good device half must not stay loaded next to the old server half"
    );
}
