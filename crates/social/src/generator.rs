//! Synthetic gang-network generation calibrated to §IV-B.

use std::collections::HashMap;

use simclock::SeededRng;

use crate::graph::{NetworkStats, PersonId, SocialGraph};

/// A generated network: the relationship graph plus gang rosters.
#[derive(Debug, Clone)]
pub struct GangNetwork {
    graph: SocialGraph,
    gangs: Vec<Vec<PersonId>>,
    population: u32,
}

impl GangNetwork {
    /// The relationship graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// Number of gangs.
    pub fn gang_count(&self) -> usize {
        self.gangs.len()
    }

    /// Total gang members across all gangs.
    pub fn member_count(&self) -> usize {
        self.gangs.iter().map(Vec::len).sum()
    }

    /// Total population (members + civilians).
    pub fn population(&self) -> u32 {
        self.population
    }

    /// All members, gang by gang.
    pub fn members(&self) -> Vec<PersonId> {
        self.gangs.iter().flatten().copied().collect()
    }

    /// Network statistics over the member subset — the numbers §IV-B quotes.
    pub fn member_stats(&self) -> NetworkStats {
        self.graph.stats_over(&self.members())
    }
}

/// Builder/generator for [`GangNetwork`]s.
///
/// # Examples
///
/// ```
/// use scsocial::GangNetworkGenerator;
///
/// let net = GangNetworkGenerator::baton_rouge(1).generate();
/// let stats = net.member_stats();
/// assert!((stats.mean_first_degree - 14.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct GangNetworkGenerator {
    /// Gang count (at least one).
    pub(crate) gangs: usize,
    /// Gang members, dealt round-robin into the gangs (at least one per
    /// gang).
    pub(crate) members: usize,
    /// People in no gang.
    pub(crate) civilians: usize,
    /// Mean first-degree count.
    pub(crate) mean_degree: f64,
    /// Fraction of member edges kept inside the own gang, in `[0, 1]`
    /// (higher clustering shrinks the second-degree field).
    pub(crate) intra_gang_fraction: f64,
    /// Seed of the draw.
    pub(crate) seed: u64,
}

impl GangNetworkGenerator {
    /// The paper's Baton Rouge configuration: 67 gangs, 982 members, mean
    /// first-degree ≈ 14, second-degree field ≈ 200.
    pub fn baton_rouge(seed: u64) -> Self {
        GangNetworkGenerator {
            gangs: 67,
            members: 982,
            civilians: 11_000,
            mean_degree: 14.0,
            intra_gang_fraction: 0.2,
            seed,
        }
    }

    /// Generates the network.
    ///
    /// # Panics
    ///
    /// Panics if there are no gangs or fewer members than gangs.
    pub fn generate(&self) -> GangNetwork {
        assert!(
            self.gangs > 0 && self.members >= self.gangs,
            "need at least one member per gang"
        );
        let mut rng = SeededRng::new(self.seed);
        let population = (self.members + self.civilians) as u32;

        // Gang rosters: round-robin so sizes differ by at most one
        // (982 / 67 ≈ 14.7 members per gang).
        let mut gangs: Vec<Vec<PersonId>> = vec![Vec::new(); self.gangs];
        let mut gang_of = HashMap::new();
        for m in 0..self.members as u32 {
            let g = (m as usize) % self.gangs;
            gangs[g].push(PersonId(m));
            gang_of.insert(PersonId(m), g);
        }

        let mut graph = SocialGraph::new();
        for p in 0..population {
            graph.add_person(PersonId(p));
        }

        // Each person draws Poisson(mean_degree / 2) stubs; every stub is an
        // undirected edge, so expected degree ≈ mean_degree. Members route
        // `intra_gang_fraction` of their stubs inside the gang (co-offense
        // clustering), the rest uniformly across the city.
        let half = self.mean_degree / 2.0;
        for p in 0..population {
            let person = PersonId(p);
            let stubs = rng.poisson(half);
            for _ in 0..stubs {
                let target = match gang_of.get(&person) {
                    Some(&g) if rng.chance(self.intra_gang_fraction) && gangs[g].len() > 1 => {
                        // Random fellow gang member.
                        loop {
                            let t = gangs[g][rng.index(gangs[g].len())];
                            if t != person {
                                break t;
                            }
                        }
                    }
                    _ => PersonId(rng.next_bounded(population as u64) as u32),
                };
                graph.add_edge(person, target);
            }
        }

        GangNetwork {
            graph,
            gangs,
            population,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each member's gang, read off the rosters.
    fn gang_of(net: &GangNetwork) -> HashMap<PersonId, usize> {
        net.gangs
            .iter()
            .enumerate()
            .flat_map(|(g, roster)| roster.iter().map(move |&p| (p, g)))
            .collect()
    }

    #[test]
    fn baton_rouge_counts_match_paper() {
        let net = GangNetworkGenerator::baton_rouge(1).generate();
        assert_eq!(net.gang_count(), 67);
        assert_eq!(net.member_count(), 982);
    }

    #[test]
    fn mean_first_degree_near_14() {
        let net = GangNetworkGenerator::baton_rouge(2).generate();
        let stats = net.member_stats();
        assert!(
            (stats.mean_first_degree - 14.0).abs() < 1.5,
            "mean first degree {}",
            stats.mean_first_degree
        );
    }

    #[test]
    fn second_degree_field_near_200() {
        let net = GangNetworkGenerator::baton_rouge(3).generate();
        let stats = net.member_stats();
        assert!(
            (150.0..260.0).contains(&stats.mean_second_degree),
            "mean second degree {}",
            stats.mean_second_degree
        );
    }

    #[test]
    fn gang_sizes_balanced() {
        let net = GangNetworkGenerator::baton_rouge(4).generate();
        let sizes: Vec<usize> = net.gangs.iter().map(Vec::len).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin rosters: {min}..{max}");
    }

    #[test]
    fn membership_lookup() {
        let net = GangNetworkGenerator::baton_rouge(5).generate();
        let member = net.members()[0];
        let gangs = gang_of(&net);
        assert_eq!(gangs.len(), net.member_count(), "one roster per member");
        assert!(gangs.contains_key(&member));
        let civilian = PersonId(net.population() - 1);
        assert!(!gangs.contains_key(&civilian));
    }

    #[test]
    fn intra_gang_clustering_increases_same_gang_edges() {
        let with = |intra_gang_fraction| GangNetworkGenerator {
            intra_gang_fraction,
            ..GangNetworkGenerator::baton_rouge(6)
        };
        let (low, high) = (with(0.0).generate(), with(0.8).generate());
        let same_gang_edges = |net: &GangNetwork| {
            let gangs = gang_of(net);
            let members = net.members();
            members
                .iter()
                .map(|&m| {
                    net.graph()
                        .first_degree(m)
                        .iter()
                        .filter(|n| gangs.get(n) == gangs.get(&m))
                        .count()
                })
                .sum::<usize>()
        };
        assert!(same_gang_edges(&high) > same_gang_edges(&low) * 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GangNetworkGenerator::baton_rouge(7).generate();
        let b = GangNetworkGenerator::baton_rouge(7).generate();
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(a.member_stats(), b.member_stats());
    }

    #[test]
    fn custom_configuration() {
        let net = GangNetworkGenerator {
            gangs: 5,
            members: 50,
            civilians: 500,
            mean_degree: 8.0,
            ..GangNetworkGenerator::baton_rouge(8)
        }
        .generate();
        assert_eq!(net.gang_count(), 5);
        assert_eq!(net.member_count(), 50);
        let stats = net.member_stats();
        assert!((stats.mean_first_degree - 8.0).abs() < 2.5);
    }
}
