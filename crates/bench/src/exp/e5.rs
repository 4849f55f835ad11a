//! E5 (Fig. 6, §IV-A1): detection + classification quality on labelled
//! scenes. The paper's corpus is 32,000 images / 400 classes; the default
//! here is a scaled 8-class run (set `SMARTCITY_FULL=1` for a 400-class
//! catalog build; a quick run ignores it, so the baseline test reads
//! nothing from the environment). Regenerates precision/recall rows and the scene
//! localization recall.

use crate::{f3, header, table, BenchJson};
use scdata::vehicles::VehicleCatalog;
use scdata::video::FrameGenerator;
use scneural::metrics::ConfusionMatrix;
use smartcity_core::apps::vehicle::{SceneDetector, VehicleClassifier};

pub fn run(quick: bool) -> BenchJson {
    header(
        "E5",
        "Fig. 6 / §IV-A1",
        "Detection & classification quality on synthetic labelled scenes",
    );
    let full = !quick && std::env::var_os("SMARTCITY_FULL").is_some();
    let classes = if full { 400 } else { 8 };
    let per_class = if full {
        80
    } else if quick {
        8
    } else {
        15
    };
    println!("catalog: {classes} classes x {per_class} crops (paper: 400 classes, 32,000 images)");
    let catalog = VehicleCatalog::generate(classes, 8);
    let train_classes = classes.min(8); // train a tractable classifier head
    let mut gen = FrameGenerator::new(catalog.clone(), 16, 16, 9).noise(0.02);
    let (frames, labels) = gen.dataset(train_classes, per_class);
    let mut clf = VehicleClassifier::new(train_classes, 16, 0.8, 10);
    clf.train(&frames, &labels, if quick { 25 } else { 50 }, 0.01);

    // Crop-level confusion metrics.
    let decisions = clf.classify(&frames);
    let predicted: Vec<usize> = decisions.iter().map(|d| d.class).collect();
    let cm = ConfusionMatrix::from_labels(train_classes, &labels, &predicted);
    let mut rows = Vec::new();
    for cls in 0..train_classes.min(8) {
        rows.push(vec![
            catalog
                .label(scdata::vehicles::VehicleClassId(cls as u16))
                .unwrap_or_default(),
            f3(cm.precision(cls)),
            f3(cm.recall(cls)),
            f3(cm.f1(cls)),
        ]);
    }
    table(&["class", "precision", "recall", "f1"], &rows);
    println!(
        "overall accuracy {:.3}, macro-F1 {:.3}",
        cm.accuracy(),
        cm.macro_f1()
    );

    // Scene-level localization.
    let mut scene_gen = FrameGenerator::new(catalog, 48, 48, 11).noise(0.02);
    let mut detector = SceneDetector::new(clf, 0.15);
    let mut localized = 0;
    let mut total = 0;
    for _ in 0..if quick { 8 } else { 20 } {
        let (scene, truths) = scene_gen.scene(2);
        let detections = detector.detect(&scene);
        total += truths.len();
        localized += truths
            .iter()
            .filter(|t| detections.iter().any(|d| d.bbox.iou(&t.bbox) > 0.1))
            .count();
    }
    println!("scene localization recall: {localized}/{total}");
    let mut json = BenchJson::new("e5", quick);
    json.det_f("crop_accuracy", cm.accuracy())
        .det_f("macro_f1", cm.macro_f1())
        .det_u("localized", localized as u64)
        .det_u("scene_objects", total as u64);
    json
}
