//! Property tests for social-graph invariants.

use proptest::prelude::*;
use sccompute::graph::shortest_paths;
use scsocial::{PersonId, SocialGraph};
use std::collections::HashSet;

fn random_graph(edges: &[(u8, u8)]) -> SocialGraph {
    let mut g = SocialGraph::new();
    for &(a, b) in edges {
        g.add_edge(PersonId(a as u32), PersonId(b as u32));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Symmetry: b ∈ N(a) ⟺ a ∈ N(b).
    #[test]
    fn adjacency_is_symmetric(edges in proptest::collection::vec((0u8..40, 0u8..40), 0..80)) {
        let g = random_graph(&edges);
        for &(a, b) in &edges {
            let (a, b) = (PersonId(a as u32), PersonId(b as u32));
            if a != b {
                prop_assert!(g.first_degree(a).contains(&b));
                prop_assert!(g.first_degree(b).contains(&a));
            }
        }
    }

    /// First- and second-degree sets are disjoint and exclude the seed.
    #[test]
    fn degree_sets_disjoint(
        edges in proptest::collection::vec((0u8..30, 0u8..30), 1..80),
        seed in 0u8..30,
    ) {
        let g = random_graph(&edges);
        let p = PersonId(seed as u32);
        let first: HashSet<PersonId> = g.first_degree(p).into_iter().collect();
        let second: HashSet<PersonId> = g.second_degree(p).into_iter().collect();
        prop_assert!(first.is_disjoint(&second));
        prop_assert!(!first.contains(&p));
        prop_assert!(!second.contains(&p));
    }

    /// A breadth-first walk to depth 2 finds first ∪ second, for any
    /// graph.
    #[test]
    fn within_two_is_union(
        edges in proptest::collection::vec((0u8..25, 0u8..25), 1..70),
        seed in 0u8..25,
    ) {
        let g = random_graph(&edges);
        let p = PersonId(seed as u32);
        let mut union: Vec<PersonId> = g.first_degree(p);
        union.extend(g.second_degree(p));
        union.sort_unstable();
        let mut seen = HashSet::from([p]);
        let mut frontier = vec![p];
        for _ in 0..2 {
            frontier = frontier
                .iter()
                .flat_map(|&q| g.first_degree(q))
                .filter(|&n| seen.insert(n))
                .collect();
        }
        seen.remove(&p);
        let mut walked: Vec<PersonId> = seen.into_iter().collect();
        walked.sort_unstable();
        prop_assert_eq!(walked, union);
    }

    /// Sum of degrees = 2 × edges (handshake lemma).
    #[test]
    fn handshake_lemma(edges in proptest::collection::vec((0u8..40, 0u8..40), 0..100)) {
        let g = random_graph(&edges);
        let degree_sum: usize = (0..40u32).map(|i| g.degree(PersonId(i))).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// The 2-hop field is graph distance 2: for every person, the
    /// second-degree set is the set that shortest paths over the
    /// property-graph view put at distance 2 (E8 counts the field both
    /// ways).
    #[test]
    fn second_degree_is_shortest_path_distance_two(
        edges in proptest::collection::vec((0u8..20, 0u8..20), 0..50),
    ) {
        let g = random_graph(&edges);
        let pg = g.to_property_graph();
        for p in 0..20u32 {
            let mut at_two: Vec<PersonId> = shortest_paths(&pg, u64::from(p))
                .into_iter()
                .filter(|&(_, d)| d == 2.0)
                .map(|(v, _)| PersonId(v as u32))
                .collect();
            at_two.sort_unstable();
            prop_assert_eq!(g.second_degree(PersonId(p)), at_two, "person {}", p);
        }
    }

    /// Second-degree via BFS matches brute-force distance computation.
    #[test]
    fn second_degree_matches_brute_force(
        edges in proptest::collection::vec((0u8..15, 0u8..15), 1..40),
        seed in 0u8..15,
    ) {
        let g = random_graph(&edges);
        let p = PersonId(seed as u32);
        // Brute force: distance-2 = reachable in exactly 2 steps.
        let first: HashSet<PersonId> = g.first_degree(p).into_iter().collect();
        let mut brute: HashSet<PersonId> = HashSet::new();
        for f in &first {
            for n in g.first_degree(*f) {
                if n != p && !first.contains(&n) {
                    brute.insert(n);
                }
            }
        }
        let got: HashSet<PersonId> = g.second_degree(p).into_iter().collect();
        prop_assert_eq!(got, brute);
    }
}
