//! E6 (Fig. 7, §IV-A2): the CNN+LSTM action recognizer's entropy-threshold
//! sweep — exit-1 rate, accuracy, and feature-map bytes shipped to the
//! server.

use crate::{f3, header, table, BenchJson};
use scdata::actions::ClipGenerator;
use scneural::early_exit::ExitPoint;
use smartcity_core::apps::actions::ActionRecognizer;

pub fn run(quick: bool) -> BenchJson {
    header(
        "E6",
        "Fig. 7 / §IV-A2",
        "Entropy-threshold sweep over the two-exit CNN+LSTM recognizer",
    );
    let mut gen = ClipGenerator::new(16, 16, 8, 13);
    let (clips, labels) = gen.dataset(6);
    let mut rec = ActionRecognizer::new(16, 8, 6, 0.6, 14);
    let losses = rec.train(&clips, &labels, if quick { 20 } else { 45 });
    let (exit1_loss, exit2_loss) = *losses.last().expect("at least one epoch");

    let mut json = BenchJson::new("e6", quick);
    // The last epoch's losses at both exits: a change to training moves
    // them even where the threshold sweep's counts stay put.
    json.det_f("final_exit1_loss", f64::from(exit1_loss))
        .det_f("final_exit2_loss", f64::from(exit2_loss));
    let mut rows = Vec::new();
    for &threshold in &[f32::INFINITY, 1.6, 1.45, 1.3, 1.15, 1.0, -1.0] {
        rec.set_entropy_threshold(threshold);
        let recs = rec.recognize(&clips);
        let correct = recs
            .iter()
            .zip(&labels)
            .filter(|(r, &l)| r.class.index() == l);
        let acc = correct.count() as f64 / recs.len() as f64;
        let bytes: usize = recs.iter().map(|r| r.feature_bytes).sum();
        let offloaded = recs.iter().filter(|r| r.exit == ExitPoint::Server);
        let offload = offloaded.count() as f64 / recs.len() as f64;
        if (threshold - 1.3).abs() < 1e-6 {
            json.det_f("accuracy_at_1_3", acc)
                .det_f("offload_at_1_3", offload)
                .det_u("feature_bytes_at_1_3", bytes as u64);
        }
        rows.push(vec![
            if threshold.is_infinite() {
                "inf".into()
            } else {
                format!("{threshold:.1}")
            },
            f3(1.0 - offload),
            f3(offload),
            f3(acc),
            (bytes / 1024).to_string(),
        ]);
    }
    table(
        &[
            "entropy_thr",
            "exit1_rate",
            "offload",
            "accuracy",
            "feat_KB",
        ],
        &rows,
    );
    println!("device-side params: {}", rec.local_param_count());
    json.det_u("local_params", rec.local_param_count() as u64);
    json
}
