//! Suspicious-behaviour monitoring (paper §IV-A2).
//!
//! Trains the Fig. 7 CNN+LSTM recognizer, then monitors a stream of clips
//! from street cameras. Confident clips are classified on the local device
//! (exit 1); uncertain ones ship their ResNet-block-1 feature maps to the
//! analysis server (output 2). Recognized suspicious behaviours raise
//! operator alerts with time, location, and activity type — exactly the
//! fields the paper logs to its database.
//!
//! ```sh
//! cargo run --release --example crime_watch
//! ```

use scdata::actions::ClipGenerator;
use scneural::early_exit::ExitPoint;
use simclock::{SimDuration, SimTime};
use smartcity::core::apps::actions::ActionRecognizer;
use smartcity::core::infrastructure::Cyberinfrastructure;

fn main() {
    // Train the two-exit recognizer.
    let mut gen = ClipGenerator::new(16, 16, 8, 21);
    let (train_clips, train_labels) = gen.dataset(8);
    let mut recognizer = ActionRecognizer::new(16, 8, 6, 0.6, 22);
    println!(
        "training CNN+LSTM recognizer on {} clips ...",
        train_clips.len()
    );
    recognizer.train(&train_clips, &train_labels, 60);
    let (acc, offload) = recognizer.evaluate(&train_clips, &train_labels);
    println!("train accuracy {acc:.3}, server-offload fraction {offload:.3}");

    // Monitor a live-ish stream of clips from downtown cameras.
    let infra = Cyberinfrastructure::new(23);
    let downtown = scgeo::GeoPoint::new(30.4515, -91.1871);
    let cameras = infra.cameras().nearest(downtown, 4);
    let mut stream_gen = ClipGenerator::new(16, 16, 8, 24);
    let (watch_clips, _) = stream_gen.dataset(2);

    let mut clock = SimTime::ZERO;
    let mut alerts = 0;
    for (i, clip) in watch_clips.iter().enumerate() {
        clock += SimDuration::from_secs(30);
        let cam = cameras[i % cameras.len()];
        let rec = &recognizer.recognize(std::slice::from_ref(clip))[0];
        let path = match rec.exit {
            ExitPoint::Local => "device exit-1",
            ExitPoint::Server => "server output-2",
        };
        if rec.raises_alert() {
            alerts += 1;
            println!(
                "ALERT t={clock} cam={} ({}) activity={} conf={:.2} entropy={:.2} via {path} \
                 [operator review queued]",
                cam.id,
                cam.city,
                rec.class.name(),
                rec.confidence,
                rec.entropy
            );
        } else {
            println!(
                "  ok  t={clock} cam={} activity={} via {path}",
                cam.id,
                rec.class.name()
            );
        }
    }
    println!("{alerts} alerts forwarded to the human operator");
}
