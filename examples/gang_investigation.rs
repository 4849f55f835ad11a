//! Social-network narrowing for a violent incident (paper §IV-B).
//!
//! Builds the 67-gang / 982-member Baton Rouge network, synthesizes a tweet
//! corpus in which a handful of second-degree associates chattered near a
//! robbery, and runs the multi-modal narrowing that shrinks the ~200-person
//! field of interest to a short persons-of-interest list.
//!
//! ```sh
//! cargo run --release --example gang_investigation
//! ```

use scdata::tweets::TweetGenerator;
use scgeo::GeoPoint;
use scsocial::narrowing::{person_handle, Incident};
use scsocial::GangNetworkGenerator;
use simclock::SimTime;
use smartcity::core::apps::social::InvestigationService;

fn main() {
    let network = GangNetworkGenerator::baton_rouge(31).generate();
    let stats = network.member_stats();
    println!("== Baton Rouge network (synthetic, calibrated to §IV-B) ==");
    println!("gangs: {}", network.gang_count());
    println!("members: {}", network.member_count());
    println!(
        "mean first-degree associates: {:.1}",
        stats.mean_first_degree
    );
    println!("mean second-degree field: {:.0}", stats.mean_second_degree);

    // A robbery at a known corner, with a known member involved.
    let incident = Incident {
        location: GeoPoint::new(30.4515, -91.1871),
        time: SimTime::from_secs(86_400 * 3 + 3_600 * 22), // day 3, 22:00
        seed_person: network.members()[40],
    };
    println!(
        "\nincident: armed robbery at {} (seed person {})",
        incident.location, incident.seed_person
    );

    // Corpus: three true second-degree associates tweeted risk vocabulary
    // near the scene; hundreds of benign tweets elsewhere.
    let field = network.graph().second_degree(incident.seed_person);
    let mut gen = TweetGenerator::new(32);
    let mut tweets = Vec::new();
    for &guilty in field.iter().take(3) {
        tweets.push(gen.near_incident(
            &person_handle(guilty),
            incident.location,
            600.0,
            incident.time,
            45 * 60 * 1_000_000,
        ));
    }
    for (i, &p) in field.iter().enumerate().skip(3).take(120) {
        let elsewhere = incident.location.offset_m(8_000.0 + i as f64, -6_000.0);
        tweets.push(gen.benign(&person_handle(p), elsewhere, SimTime::from_secs(1_000)));
    }
    println!("tweet corpus: {} tweets", tweets.len());

    let mut service = InvestigationService::new(network, tweets);
    let (report_id, report) = service.investigate(&incident);
    println!("\n== narrowing report ({report_id}) ==");
    println!("first-degree associates: {}", report.first_degree);
    println!(
        "field of interest (second-degree): {}",
        report.field_of_interest
    );
    println!(
        "persons of interest after geo × time × text filter: {}",
        report.persons_of_interest.len()
    );
    for p in &report.persons_of_interest {
        println!("  {p} (investigate)");
    }
    println!("field reduction factor: {:.1}x", report.reduction_factor);
    let stored = service.reports_for(incident.seed_person.0);
    assert_eq!(stored, [report_id], "the report is stored under its seed");
    println!(
        "reports stored for seed person {}: {}",
        incident.seed_person,
        stored.len()
    );
}
