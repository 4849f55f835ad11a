//! Integration: the §IV-B investigation flow with the paper's calibrated
//! network, a mixed tweet corpus, and the document-store report log.

use scdata::tweets::TweetGenerator;
use scsocial::narrowing::{person_handle, Incident};
use scsocial::GangNetworkGenerator;
use simclock::SimTime;
use smartcity::core::apps::social::InvestigationService;
use smartcity::geo::GeoPoint;

#[test]
fn paper_statistics_and_narrowing_hold_together() {
    let network = GangNetworkGenerator::baton_rouge(200).generate();

    // The §IV-B quantities.
    assert_eq!(network.gang_count(), 67);
    assert_eq!(network.member_count(), 982);
    let stats = network.member_stats();
    assert!((stats.mean_first_degree - 14.0).abs() < 1.5, "{stats:?}");
    assert!(
        (150.0..260.0).contains(&stats.mean_second_degree),
        "{stats:?}"
    );

    // Incident seeded on a member with a decent field.
    let seed_person = network.members()[10];
    let incident = Incident {
        location: GeoPoint::new(30.4515, -91.1871),
        time: SimTime::from_secs(50_000),
        seed_person,
    };
    let field = network.graph().second_degree(seed_person);
    assert!(field.len() > 50);

    // Corpus: 4 guilty associates near the scene; 300 benign distractors
    // from the field posted far away.
    let mut gen = TweetGenerator::new(201);
    let mut tweets = Vec::new();
    let guilty: Vec<_> = field.iter().take(4).copied().collect();
    for &g in &guilty {
        tweets.push(gen.near_incident(
            &person_handle(g),
            incident.location,
            400.0,
            incident.time,
            30 * 60 * 1_000_000,
        ));
    }
    for (i, &p) in field.iter().enumerate().take(300) {
        let far = incident.location.offset_m(12_000.0, (i as f64) * 3.0);
        tweets.push(gen.benign(&person_handle(p), far, SimTime::from_secs(999_000)));
    }

    let mut service = InvestigationService::new(network, tweets);
    let (_, report) = service.investigate(&incident);

    // Exactly the guilty surface.
    let mut expect = guilty.clone();
    expect.sort_unstable();
    assert_eq!(report.persons_of_interest, expect);
    assert!(
        report.reduction_factor > 10.0,
        "field {} → poi {} (factor {})",
        report.field_of_interest,
        report.persons_of_interest.len(),
        report.reduction_factor
    );

    // The report is durably queryable.
    assert_eq!(service.reports_for(seed_person.0).len(), 1);
}
