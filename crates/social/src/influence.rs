//! Influence ranking and crew discovery on the criminal network.
//!
//! §IV-B's analytic goal is to "identify social relationships which
//! interconnect violent offenders and criminal group members" so
//! investigations can prioritize. On top of the co-offense graph this module
//! runs the graph-processing substrate (the paper's GraphX-style workloads,
//! §II-C2):
//!
//! - [`influence_ranking`]: PageRank over the relationship graph — who the
//!   network structurally revolves around.
//! - [`discover_crews`]: connected components over the *member-only*
//!   subgraph — data-driven crew discovery, compared against the known gang
//!   rosters.

use std::collections::HashMap;

use sccompute::graph::{connected_components, pagerank, PropertyGraph};
use sctelemetry::{SampleSummary, TelemetryHandle};

use crate::generator::GangNetwork;
use crate::graph::PersonId;

/// Metric name of the people-ranked counter.
const METRIC_RANKED: &str = "scsocial_influence_ranked_total";
/// Metric name of the exact PageRank-score histogram.
const METRIC_SCORE: &str = "scsocial_influence_score_ratio";

/// Builds the graph-processing view of the full relationship graph.
pub fn to_property_graph(network: &GangNetwork) -> PropertyGraph<()> {
    let mut g = PropertyGraph::new();
    for p in 0..network.population() {
        g.add_vertex(p as u64, ());
    }
    let graph = network.graph();
    for p in 0..network.population() {
        let person = PersonId(p);
        for n in graph.first_degree(person) {
            // first_degree is symmetric; add each undirected edge once.
            if n.0 > p {
                g.add_undirected_edge(p as u64, n.0 as u64, 1.0);
            }
        }
    }
    g
}

/// Member-only subgraph (civilian links removed) for crew discovery.
pub fn member_subgraph(network: &GangNetwork) -> PropertyGraph<()> {
    let mut g = PropertyGraph::new();
    let members = network.members();
    for &m in &members {
        g.add_vertex(m.0 as u64, ());
    }
    let graph = network.graph();
    for &m in &members {
        for n in graph.first_degree(m) {
            if network.is_member(n) && n.0 > m.0 {
                g.add_undirected_edge(m.0 as u64, n.0 as u64, 1.0);
            }
        }
    }
    g
}

/// The `top_k` most influential people by PageRank, with their scores and
/// gang membership, highest first.
pub fn influence_ranking(
    network: &GangNetwork,
    iterations: usize,
    top_k: usize,
) -> Vec<(PersonId, f64, Option<usize>)> {
    let g = to_property_graph(network);
    let ranks = pagerank(&g, iterations);
    let mut ranked: Vec<(PersonId, f64)> = ranks
        .into_iter()
        .map(|(id, r)| (PersonId(id as u32), r))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(top_k)
        .map(|(p, r)| (p, r, network.gang_of(p)))
        .collect()
}

/// Distribution of PageRank influence across the whole population, using the
/// shared nearest-rank percentile convention of [`sctelemetry::percentile_sorted`].
/// When `telemetry` is attached, every score is also observed into the
/// `scsocial_influence_score_ratio` exact histogram and the population counted into
/// `scsocial_influence_ranked_total`, so the returned summary is reproducible from a
/// registry snapshot. Returns `None` for an empty population.
pub fn influence_summary(
    network: &GangNetwork,
    iterations: usize,
    telemetry: &TelemetryHandle,
) -> Option<SampleSummary> {
    let g = to_property_graph(network);
    let ranks = pagerank(&g, iterations);
    let scores: Vec<f64> = ranks.into_values().collect();
    if telemetry.is_enabled() {
        telemetry.counter_add(
            METRIC_RANKED,
            "people ranked by influence",
            scores.len() as u64,
        );
        for &s in &scores {
            telemetry.observe_exact(METRIC_SCORE, "PageRank influence score", s);
        }
    }
    SampleSummary::from_sample(&scores)
}

/// Discovered crews: connected components of the member-only subgraph, as
/// `component label → members`, largest first.
pub fn discover_crews(network: &GangNetwork) -> Vec<Vec<PersonId>> {
    let g = member_subgraph(network);
    let cc = connected_components(&g);
    let mut groups: HashMap<u64, Vec<PersonId>> = HashMap::new();
    for (id, label) in cc {
        groups.entry(label).or_default().push(PersonId(id as u32));
    }
    let mut crews: Vec<Vec<PersonId>> = groups.into_values().collect();
    for crew in &mut crews {
        crew.sort_unstable();
    }
    crews.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    crews
}

/// How well discovered crews align with known gang rosters: for each crew of
/// size ≥ 2, the purity (largest same-gang fraction). Returns the mean
/// purity weighted by crew size.
pub fn crew_purity(network: &GangNetwork, crews: &[Vec<PersonId>]) -> f64 {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for crew in crews.iter().filter(|c| c.len() >= 2) {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for &p in crew {
            if let Some(g) = network.gang_of(p) {
                *counts.entry(g).or_default() += 1;
            }
        }
        let max = counts.values().copied().max().unwrap_or(0);
        weighted += max as f64;
        total += crew.len() as f64;
    }
    if total == 0.0 {
        0.0
    } else {
        weighted / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GangNetworkGenerator;

    /// Small network with heavy intra-gang clustering so crews are
    /// discoverable.
    fn clustered_network(seed: u64) -> GangNetwork {
        GangNetworkGenerator {
            gangs: 4,
            members: 40,
            civilians: 100,
            mean_degree: 8.0,
            intra_gang_fraction: 0.95,
            ..GangNetworkGenerator::baton_rouge(seed)
        }
        .generate()
    }

    #[test]
    fn property_graph_matches_social_graph() {
        let net = GangNetworkGenerator {
            gangs: 3,
            members: 12,
            civilians: 50,
            mean_degree: 6.0,
            ..GangNetworkGenerator::baton_rouge(1)
        }
        .generate();
        let g = to_property_graph(&net);
        assert_eq!(g.vertex_count(), net.population() as usize);
        // Undirected edges doubled into directed edges.
        assert_eq!(g.edge_count(), 2 * net.graph().edge_count());
    }

    #[test]
    fn influence_ranking_returns_top_k() {
        let net = clustered_network(2);
        let top = influence_ranking(&net, 15, 10);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1, "descending scores");
        }
        // High-degree members should outrank average civilians: the top
        // entry's degree is above the population mean.
        let top_degree = net.graph().degree(top[0].0);
        let mean_degree = 2.0 * net.graph().edge_count() as f64 / net.population() as f64;
        assert!(
            top_degree as f64 > mean_degree,
            "{top_degree} vs {mean_degree}"
        );
    }

    #[test]
    fn influence_summary_matches_registry_view() {
        let net = clustered_network(2);
        let t = sctelemetry::Telemetry::shared();
        let summary = influence_summary(&net, 15, &t.handle()).expect("non-empty population");
        assert_eq!(summary.count as u32, net.population());
        assert!(summary.p50 <= summary.p95 && summary.p95 <= summary.p99);
        assert!(summary.p99 <= summary.max);

        let reg = t.registry();
        let ranked = reg.get(METRIC_RANKED).unwrap().as_counter().unwrap().get();
        assert_eq!(ranked, summary.count as u64);
        let snap = reg
            .get(METRIC_SCORE)
            .unwrap()
            .as_histogram()
            .unwrap()
            .snapshot();
        assert_eq!(snap.count, summary.count as u64);
        assert_eq!(
            snap.max, summary.max,
            "exact histogram reproduces the summary"
        );
        assert_eq!(snap.percentile(0.95), Some(summary.p95));
    }

    #[test]
    fn crews_cover_all_members() {
        let net = clustered_network(3);
        let crews = discover_crews(&net);
        let covered: usize = crews.iter().map(Vec::len).sum();
        assert_eq!(covered, net.member_count());
    }

    #[test]
    fn full_clustering_yields_pure_crews() {
        // With *all* member edges intra-gang there are no bridges, so
        // member-only components can never span gangs: purity is exactly 1.
        let net = GangNetworkGenerator {
            gangs: 4,
            members: 40,
            civilians: 100,
            mean_degree: 8.0,
            intra_gang_fraction: 1.0,
            ..GangNetworkGenerator::baton_rouge(4)
        }
        .generate();
        let crews = discover_crews(&net);
        let purity = crew_purity(&net, &crews);
        assert!((purity - 1.0).abs() < 1e-12, "purity {purity}");
    }

    #[test]
    fn bridge_edges_merge_components() {
        // A single inter-gang co-offense merges crews — exactly why the
        // paper layers tweet evidence on top of raw graph expansion.
        let p95 = crew_purity(
            &clustered_network(4),
            &discover_crews(&clustered_network(4)),
        );
        assert!(p95 <= 1.0);
    }

    #[test]
    fn no_clustering_merges_crews() {
        // With no intra-gang preference the member subgraph is sparse random:
        // crews do not align with rosters better than clustered ones.
        let clustered = clustered_network(5);
        let mixed = GangNetworkGenerator {
            gangs: 4,
            members: 40,
            civilians: 100,
            mean_degree: 8.0,
            intra_gang_fraction: 0.0,
            ..GangNetworkGenerator::baton_rouge(5)
        }
        .generate();
        let p_clustered = crew_purity(&clustered, &discover_crews(&clustered));
        let p_mixed = crew_purity(&mixed, &discover_crews(&mixed));
        assert!(
            p_clustered >= p_mixed,
            "clustered {p_clustered} vs mixed {p_mixed}"
        );
    }
}
