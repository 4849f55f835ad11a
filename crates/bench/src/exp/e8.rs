//! E8 (§IV-B): the gang-network statistics table (67 gangs / 982 members /
//! mean 14 first-degree / ~200 second-degree) and the multi-modal narrowing
//! reduction factor. Each incident's field of interest is counted twice:
//! by the narrowing's 2-hop expansion and by GraphX-style shortest paths
//! over the same network, which must agree.

use crate::{f1, header, table, BenchJson};
use sccompute::graph::shortest_paths;
use scdata::tweets::TweetGenerator;
use scgeo::GeoPoint;
use scsocial::narrowing::{person_handle, Incident, Narrower, NarrowingConfig};
use scsocial::{GangNetwork, GangNetworkGenerator};
use simclock::SimTime;

fn corpus(network: &GangNetwork, incident: &Incident, guilty: usize) -> Vec<scdata::tweets::Tweet> {
    let field = network.graph().second_degree(incident.seed_person);
    let mut gen = TweetGenerator::new(21);
    let mut tweets = Vec::new();
    for &g in field.iter().take(guilty) {
        tweets.push(gen.near_incident(
            &person_handle(g),
            incident.location,
            400.0,
            incident.time,
            30 * 60 * 1_000_000,
        ));
    }
    for (i, &p) in field.iter().enumerate() {
        let far = incident.location.offset_m(10_000.0, i as f64 * 5.0);
        tweets.push(gen.benign(&person_handle(p), far, SimTime::from_secs(1)));
    }
    tweets
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E8",
        "§IV-B",
        "Gang network statistics and multi-modal narrowing (paper: 67 gangs, 982 members, ~14 first-degree, ~200 second-degree)",
    );
    let network = GangNetworkGenerator::baton_rouge(20).generate();
    let stats = network.member_stats();
    table(
        &["quantity", "paper", "measured"],
        &[
            vec![
                "gangs".into(),
                "67".into(),
                network.gang_count().to_string(),
            ],
            vec![
                "members".into(),
                "982".into(),
                network.member_count().to_string(),
            ],
            vec![
                "mean first-degree".into(),
                "14".into(),
                f1(stats.mean_first_degree),
            ],
            vec![
                "mean second-degree field".into(),
                "~200".into(),
                f1(stats.mean_second_degree),
            ],
        ],
    );

    let mut json = BenchJson::new("e8", quick);
    json.det_u("gangs", network.gang_count() as u64)
        .det_u("members", network.member_count() as u64)
        .det_f("mean_first_degree", stats.mean_first_degree)
        .det_f("mean_second_degree", stats.mean_second_degree);

    println!("\nNarrowing across incidents (3 guilty associates each):");
    let incidents = if quick { 3 } else { 5 };
    let property_graph = network.graph().to_property_graph();
    let (mut poi_total, mut field_total, mut sssp_field_total) = (0u64, 0u64, 0u64);
    let mut rows = Vec::new();
    for (i, &seed_person) in network
        .members()
        .iter()
        .step_by(200)
        .take(incidents)
        .enumerate()
    {
        let incident = Incident {
            location: GeoPoint::new(30.4515, -91.1871),
            time: SimTime::from_secs(40_000),
            seed_person,
        };
        let tweets = corpus(&network, &incident, 3);
        let narrower = Narrower::new(&network, &tweets, NarrowingConfig::default());
        let report = narrower.narrow(&incident);
        let at_two_hops = shortest_paths(&property_graph, u64::from(seed_person.0))
            .into_values()
            .filter(|&d| d == 2.0)
            .count();
        poi_total += report.persons_of_interest.len() as u64;
        field_total += report.field_of_interest as u64;
        sssp_field_total += at_two_hops as u64;
        rows.push(vec![
            format!("incident-{i}"),
            report.first_degree.to_string(),
            report.field_of_interest.to_string(),
            at_two_hops.to_string(),
            report.persons_of_interest.len().to_string(),
            f1(report.reduction_factor),
        ]);
    }
    table(
        &[
            "case",
            "first_deg",
            "field",
            "sssp_field",
            "poi",
            "reduction_x",
        ],
        &rows,
    );
    assert_eq!(
        sssp_field_total, field_total,
        "the 2-hop field is exactly graph distance 2"
    );
    json.det_u("persons_of_interest_total", poi_total)
        .det_u("sssp_field_total", sssp_field_total);
    json
}
