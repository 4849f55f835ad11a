//! Every request and every ingest event of a city day is accounted for,
//! whatever the seed and however bad the day.
//!
//! The seed-42 goldens pin one day; this sweep holds the day's books over
//! seeds × fault intensities × citybench's two request mixes. A seed draws
//! the residents' traffic, the city's flash crowds and its fault schedule.
//! Each run must balance:
//!
//! - every sampled request is answered or counted as unanswered;
//! - every ingest send is delivered or audited as lost;
//! - the archive loses no block.
//!
//! A failing run prints a one-line repro of its seed, intensity and mix.

use scmetro::{MetroConfig, MetroReport, MetroSim, PopulationConfig};

/// citybench's two request mixes: (name, keyspace, skew, writes, inference).
const MIXES: [(&str, usize, f64, f64, f64); 2] = [
    ("city_day", 200, 1.0, 0.05, 0.2),
    ("city_day_churn", 2_000, 0.2, 0.5, 0.05),
];

const INTENSITIES: [f64; 3] = [0.0, 1.0, 3.0];

const REQUESTS: u64 = 600;

fn day(seed: u64, intensity: f64, mix: (&str, usize, f64, f64, f64)) -> MetroReport {
    let (_, keyspace, skew, write_fraction, infer_fraction) = mix;
    MetroSim::new(MetroConfig {
        seed,
        population: PopulationConfig {
            users: 50_000,
            windows: 24,
            seed,
            ..PopulationConfig::default()
        },
        sample_total: REQUESTS,
        keyspace,
        skew,
        write_fraction,
        infer_fraction,
        fault_intensity: intensity,
        ..MetroConfig::default()
    })
    .run()
}

#[test]
fn every_request_and_event_is_accounted_for_on_any_day() {
    let (mut lost, mut duplicates) = (0, 0);
    for seed in 0..8 {
        for intensity in INTENSITIES {
            for mix in MIXES {
                let r = day(seed, intensity, mix);
                let repro = format!("SEED={seed} INTENSITY={intensity} MIX={}", mix.0);
                assert_eq!(
                    r.answered + r.unanswered,
                    REQUESTS,
                    "{repro}: answered + unanswered"
                );
                assert_eq!(
                    (r.delivered + r.lost) as u64,
                    REQUESTS,
                    "{repro}: delivered + lost"
                );
                assert_eq!(r.dfs.lost, 0, "{repro}: archive blocks lost");
                lost += r.lost;
                duplicates += r.duplicates;
            }
        }
    }
    // The sweep must reach the paths the books balance: sends lost
    // outright and resends after a lost ack.
    assert!(lost > 0, "no day lost an ingest send");
    assert!(duplicates > 0, "no day resent after a lost ack");
}
