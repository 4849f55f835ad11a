//! The social graph and k-degree expansion.

use std::collections::{HashMap, HashSet, VecDeque};

/// Identifier of a person in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PersonId(pub u32);

impl std::fmt::Display for PersonId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{:05}", self.0)
    }
}

/// Aggregate statistics of a graph (the §IV-B numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// People in the graph.
    pub people: usize,
    /// Undirected edges.
    pub edges: usize,
    /// Mean first-degree network size over the given subset.
    pub mean_first_degree: f64,
    /// Mean exactly-second-degree count over the given subset.
    pub mean_second_degree: f64,
}

/// An undirected social graph: nodes are people, edges are relationships
/// detected from co-offense records and known affiliations.
///
/// # Examples
///
/// ```
/// use scsocial::{PersonId, SocialGraph};
///
/// let mut g = SocialGraph::new();
/// g.add_edge(PersonId(1), PersonId(2));
/// g.add_edge(PersonId(2), PersonId(3));
/// assert_eq!(g.first_degree(PersonId(1)), vec![PersonId(2)]);
/// assert_eq!(g.second_degree(PersonId(1)), vec![PersonId(3)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SocialGraph {
    adjacency: HashMap<PersonId, HashSet<PersonId>>,
    edges: usize,
}

impl SocialGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures a node exists (isolated people are valid).
    pub fn add_person(&mut self, p: PersonId) {
        self.adjacency.entry(p).or_default();
    }

    /// Adds an undirected edge (idempotent; self-loops ignored).
    pub fn add_edge(&mut self, a: PersonId, b: PersonId) {
        if a == b {
            return;
        }
        let inserted = self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
        if inserted {
            self.edges += 1;
        }
    }

    /// Whether an edge exists.
    pub fn has_edge(&self, a: PersonId, b: PersonId) -> bool {
        self.adjacency.get(&a).is_some_and(|n| n.contains(&b))
    }

    /// Number of people.
    fn person_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Degree of a person (0 if unknown).
    pub fn degree(&self, p: PersonId) -> usize {
        self.adjacency.get(&p).map_or(0, HashSet::len)
    }

    /// First-degree associates, sorted.
    pub fn first_degree(&self, p: PersonId) -> Vec<PersonId> {
        let mut out: Vec<PersonId> = self
            .adjacency
            .get(&p)
            .map(|n| n.iter().copied().collect())
            .unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// People at exactly graph distance 2 (second-degree affiliates — "a
    /// relationship connection through a shared co-offender"), sorted.
    pub fn second_degree(&self, p: PersonId) -> Vec<PersonId> {
        let first: HashSet<PersonId> = self.adjacency.get(&p).cloned().unwrap_or_default();
        let mut second: HashSet<PersonId> = HashSet::new();
        for f in &first {
            if let Some(nn) = self.adjacency.get(f) {
                for &n in nn {
                    if n != p && !first.contains(&n) {
                        second.insert(n);
                    }
                }
            }
        }
        let mut out: Vec<PersonId> = second.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Everyone within graph distance `k` of `p` (excluding `p`), sorted.
    pub fn within_degree(&self, p: PersonId, k: usize) -> Vec<PersonId> {
        let mut seen: HashSet<PersonId> = HashSet::new();
        let mut queue: VecDeque<(PersonId, usize)> = VecDeque::new();
        seen.insert(p);
        queue.push_back((p, 0));
        let mut out = Vec::new();
        while let Some((cur, d)) = queue.pop_front() {
            if d == k {
                continue;
            }
            if let Some(neighbors) = self.adjacency.get(&cur) {
                for &n in neighbors {
                    if seen.insert(n) {
                        out.push(n);
                        queue.push_back((n, d + 1));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Computes mean first/second-degree sizes over `subset` (e.g. gang
    /// members only, as the paper reports).
    pub fn stats_over(&self, subset: &[PersonId]) -> NetworkStats {
        let n = subset.len().max(1) as f64;
        let first: f64 = subset.iter().map(|&p| self.degree(p) as f64).sum::<f64>() / n;
        let second: f64 = subset
            .iter()
            .map(|&p| self.second_degree(p).len() as f64)
            .sum::<f64>()
            / n;
        NetworkStats {
            people: self.person_count(),
            edges: self.edge_count(),
            mean_first_degree: first,
            mean_second_degree: second,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> SocialGraph {
        let mut g = SocialGraph::new();
        for i in 0..n.saturating_sub(1) {
            g.add_edge(PersonId(i), PersonId(i + 1));
        }
        g
    }

    #[test]
    fn edge_bookkeeping() {
        let mut g = SocialGraph::new();
        g.add_edge(PersonId(1), PersonId(2));
        g.add_edge(PersonId(2), PersonId(1)); // duplicate
        g.add_edge(PersonId(1), PersonId(1)); // self-loop ignored
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(PersonId(2), PersonId(1)));
        assert_eq!(g.degree(PersonId(1)), 1);
    }

    #[test]
    fn second_degree_excludes_first() {
        let g = path_graph(5); // 0-1-2-3-4
        assert_eq!(g.second_degree(PersonId(2)), vec![PersonId(0), PersonId(4)]);
        assert_eq!(g.first_degree(PersonId(2)), vec![PersonId(1), PersonId(3)]);
    }

    #[test]
    fn triangle_has_no_second_degree() {
        let mut g = SocialGraph::new();
        g.add_edge(PersonId(0), PersonId(1));
        g.add_edge(PersonId(1), PersonId(2));
        g.add_edge(PersonId(2), PersonId(0));
        assert!(g.second_degree(PersonId(0)).is_empty());
    }

    #[test]
    fn within_degree_bfs() {
        let g = path_graph(6); // 0-1-2-3-4-5
        assert_eq!(g.within_degree(PersonId(0), 1), vec![PersonId(1)]);
        assert_eq!(
            g.within_degree(PersonId(0), 3),
            vec![PersonId(1), PersonId(2), PersonId(3)]
        );
        assert_eq!(g.within_degree(PersonId(0), 99).len(), 5);
    }

    #[test]
    fn within_degree_matches_first_plus_second() {
        let g = path_graph(10);
        for i in 0..10 {
            let p = PersonId(i);
            let mut expect = g.first_degree(p);
            expect.extend(g.second_degree(p));
            expect.sort_unstable();
            assert_eq!(g.within_degree(p, 2), expect);
        }
    }

    #[test]
    fn unknown_person_is_isolated() {
        let g = SocialGraph::new();
        assert_eq!(g.degree(PersonId(9)), 0);
        assert!(g.first_degree(PersonId(9)).is_empty());
        assert!(g.second_degree(PersonId(9)).is_empty());
    }

    #[test]
    fn stats_over_subset() {
        let g = path_graph(4); // degrees: 1,2,2,1
        let stats = g.stats_over(&[PersonId(1), PersonId(2)]);
        assert_eq!(stats.mean_first_degree, 2.0);
        assert_eq!(stats.people, 4);
        assert_eq!(stats.edges, 3);
    }
}
