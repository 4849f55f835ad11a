//! Pregel-style iterative graph processing — the GraphX analogue.
//!
//! The paper's software layer "also supports other types of analytical
//! workloads such as streaming processing, geospatial processing, and
//! graph-based processing" (§II-C2, citing GraphX/GraphMap/GraphTwist).
//! This module provides a vertex-centric bulk-synchronous engine
//! (`pregel`) plus the two canonical algorithms smart-city graph analytics
//! need: PageRank (influence ranking of criminal-network members) and
//! connected components (crew discovery).

use std::collections::HashMap;

/// A directed property graph with `V` vertex values stored per vertex id.
#[derive(Debug, Clone)]
pub struct PropertyGraph<V> {
    vertices: HashMap<u64, V>,
    // Adjacency: src → [(dst, weight)].
    edges: HashMap<u64, Vec<(u64, f64)>>,
    edge_count: usize,
}

impl<V> PropertyGraph<V> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        PropertyGraph {
            vertices: HashMap::new(),
            edges: HashMap::new(),
            edge_count: 0,
        }
    }

    /// Adds (or replaces) a vertex.
    pub fn add_vertex(&mut self, id: u64, value: V) {
        self.vertices.insert(id, value);
    }

    /// Adds a directed, weighted edge. Endpoints must already exist.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is missing.
    fn add_edge(&mut self, src: u64, dst: u64, weight: f64) {
        assert!(
            self.vertices.contains_key(&src),
            "unknown source vertex {src}"
        );
        assert!(
            self.vertices.contains_key(&dst),
            "unknown destination vertex {dst}"
        );
        self.edges.entry(src).or_default().push((dst, weight));
        self.edge_count += 1;
    }

    /// Adds an undirected edge (two directed edges).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is missing.
    pub fn add_undirected_edge(&mut self, a: u64, b: u64, weight: f64) {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight);
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Out-degree of a vertex.
    fn out_degree(&self, id: u64) -> usize {
        self.edges.get(&id).map_or(0, Vec::len)
    }

    /// Iterates vertex ids in arbitrary order.
    fn vertex_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.vertices.keys().copied()
    }

    /// Out-edges of a vertex.
    fn out_edges(&self, id: u64) -> &[(u64, f64)] {
        self.edges.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }
}

impl<V> Default for PropertyGraph<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// One superstep's view of a vertex inside [`pregel`].
#[derive(Debug)]
struct VertexContext<'a, S, M> {
    /// The vertex id.
    id: u64,
    /// Mutable vertex state.
    state: &'a mut S,
    /// Messages received this superstep.
    messages: &'a [M],
    /// Current superstep index (0-based).
    superstep: usize,
    outbox: &'a mut Vec<(u64, M)>,
    halted: &'a mut bool,
}

impl<S, M> VertexContext<'_, S, M> {
    /// Sends a message to `dst` for the next superstep.
    fn send(&mut self, dst: u64, message: M) {
        self.outbox.push((dst, message));
    }

    /// Votes to halt; the vertex stays halted until a message wakes it.
    fn vote_to_halt(&mut self) {
        *self.halted = true;
    }
}

/// Runs a bulk-synchronous vertex program until every vertex halts with no
/// in-flight messages, or `max_supersteps` elapse. Returns the final states
/// and the number of supersteps executed.
///
/// The program receives a [`VertexContext`] per active vertex per superstep.
/// All vertices are active in superstep 0.
fn pregel<V, S, M, I, P>(
    graph: &PropertyGraph<V>,
    init: I,
    mut program: P,
    max_supersteps: usize,
) -> (HashMap<u64, S>, usize)
where
    I: Fn(u64, &V) -> S,
    P: FnMut(&PropertyGraph<V>, &mut VertexContext<'_, S, M>),
{
    let mut states: HashMap<u64, S> = graph
        .vertices
        .iter()
        .map(|(&id, v)| (id, init(id, v)))
        .collect();
    let mut halted: HashMap<u64, bool> = graph.vertex_ids().map(|id| (id, false)).collect();
    let mut inbox: HashMap<u64, Vec<M>> = HashMap::new();

    let mut steps = 0;
    for superstep in 0..max_supersteps {
        // Deterministic order: sorted vertex ids.
        let mut ids: Vec<u64> = graph.vertex_ids().collect();
        ids.sort_unstable();

        let mut any_active = false;
        let mut next_inbox: HashMap<u64, Vec<M>> = HashMap::new();
        for id in ids {
            let msgs = inbox.remove(&id).unwrap_or_default();
            let vertex_halted = halted.get(&id).copied().unwrap_or(false);
            if vertex_halted && msgs.is_empty() {
                continue;
            }
            any_active = true;
            let mut outbox: Vec<(u64, M)> = Vec::new();
            let mut halt_flag = false;
            {
                let state = states.get_mut(&id).expect("state initialized");
                let mut ctx = VertexContext {
                    id,
                    state,
                    messages: &msgs,
                    superstep,
                    outbox: &mut outbox,
                    halted: &mut halt_flag,
                };
                program(graph, &mut ctx);
            }
            halted.insert(id, halt_flag);
            for (dst, m) in outbox {
                next_inbox.entry(dst).or_default().push(m);
            }
        }
        inbox = next_inbox;
        steps = superstep + 1;
        if !any_active {
            steps = superstep; // nothing ran this superstep
            break;
        }
        if inbox.is_empty() && halted.values().all(|&h| h) {
            break;
        }
    }
    (states, steps)
}

/// PageRank with damping 0.85 over out-edge counts. Returns per-vertex rank
/// summing (approximately) to the vertex count.
pub fn pagerank<V>(graph: &PropertyGraph<V>, iterations: usize) -> HashMap<u64, f64> {
    let damping = 0.85;
    #[derive(Debug)]
    struct Rank(f64);
    let (states, _) = pregel::<V, Rank, f64, _, _>(
        graph,
        |_, _| Rank(1.0),
        |g, ctx| {
            if ctx.superstep > 0 {
                let incoming: f64 = ctx.messages.iter().sum();
                ctx.state.0 = (1.0 - damping) + damping * incoming;
            }
            if ctx.superstep < iterations {
                let degree = g.out_degree(ctx.id);
                if degree > 0 {
                    let share = ctx.state.0 / degree as f64;
                    let targets: Vec<u64> = g.out_edges(ctx.id).iter().map(|&(d, _)| d).collect();
                    for dst in targets {
                        ctx.send(dst, share);
                    }
                }
            } else {
                ctx.vote_to_halt();
            }
        },
        iterations + 2,
    );
    states.into_iter().map(|(id, r)| (id, r.0)).collect()
}

/// Connected components via label propagation on the *undirected* view of
/// the graph (messages travel along out-edges; callers building co-offense
/// graphs should use [`PropertyGraph::add_undirected_edge`]). Returns the
/// minimum vertex id in each vertex's component.
pub fn connected_components<V>(graph: &PropertyGraph<V>) -> HashMap<u64, u64> {
    #[derive(Debug)]
    struct Label(u64);
    let (states, _) = pregel::<V, Label, u64, _, _>(
        graph,
        |id, _| Label(id),
        |g, ctx| {
            let best_incoming = ctx.messages.iter().copied().min();
            let mut changed = ctx.superstep == 0;
            if let Some(m) = best_incoming {
                if m < ctx.state.0 {
                    ctx.state.0 = m;
                    changed = true;
                }
            }
            if changed {
                let label = ctx.state.0;
                let targets: Vec<u64> = g.out_edges(ctx.id).iter().map(|&(d, _)| d).collect();
                for dst in targets {
                    ctx.send(dst, label);
                }
            }
            ctx.vote_to_halt();
        },
        graph.vertex_count() + 2,
    );
    states.into_iter().map(|(id, l)| (id, l.0)).collect()
}

/// Single-source shortest paths over edge weights (non-negative). Returns
/// distances; unreachable vertices are absent.
pub fn shortest_paths<V>(graph: &PropertyGraph<V>, source: u64) -> HashMap<u64, f64> {
    #[derive(Debug)]
    struct Dist(f64);
    let (states, _) = pregel::<V, Dist, f64, _, _>(
        graph,
        |id, _| Dist(if id == source { 0.0 } else { f64::INFINITY }),
        |g, ctx| {
            let incoming = ctx.messages.iter().copied().fold(f64::INFINITY, f64::min);
            let seeded = ctx.superstep == 0 && ctx.id == source;
            let improved = incoming < ctx.state.0;
            if improved {
                ctx.state.0 = incoming;
            }
            if seeded || improved {
                let base = ctx.state.0;
                let edges: Vec<(u64, f64)> = g.out_edges(ctx.id).to_vec();
                for (dst, w) in edges {
                    ctx.send(dst, base + w);
                }
            }
            ctx.vote_to_halt();
        },
        graph.vertex_count() + 2,
    );
    states
        .into_iter()
        .filter(|(_, d)| d.0.is_finite())
        .map(|(id, d)| (id, d.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: u64) -> PropertyGraph<()> {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            g.add_vertex(i, ());
        }
        for i in 0..n - 1 {
            g.add_undirected_edge(i, i + 1, 1.0);
        }
        g
    }

    #[test]
    fn graph_basics() {
        let g = line_graph(4);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 6); // 3 undirected = 6 directed
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.out_degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "unknown source")]
    fn edge_requires_vertices() {
        let mut g: PropertyGraph<()> = PropertyGraph::new();
        g.add_edge(1, 2, 1.0);
    }

    #[test]
    fn pagerank_sums_to_vertex_count() {
        let g = line_graph(5);
        let ranks = pagerank(&g, 30);
        let total: f64 = ranks.values().sum();
        assert!((total - 5.0).abs() < 0.1, "total {total}");
    }

    #[test]
    fn pagerank_hub_ranks_highest() {
        // Star: everyone points at vertex 0.
        let mut g = PropertyGraph::new();
        for i in 0..6u64 {
            g.add_vertex(i, ());
        }
        for i in 1..6u64 {
            g.add_edge(i, 0, 1.0);
        }
        let ranks = pagerank(&g, 20);
        let hub = ranks[&0];
        for i in 1..6u64 {
            assert!(hub > ranks[&i] * 2.0, "hub {hub} vs {}", ranks[&i]);
        }
    }

    #[test]
    fn connected_components_two_islands() {
        let mut g = PropertyGraph::new();
        for i in 0..6u64 {
            g.add_vertex(i, ());
        }
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(1, 2, 1.0);
        g.add_undirected_edge(4, 5, 1.0);
        let cc = connected_components(&g);
        assert_eq!(cc[&0], 0);
        assert_eq!(cc[&1], 0);
        assert_eq!(cc[&2], 0);
        assert_eq!(cc[&3], 3, "isolated vertex is its own component");
        assert_eq!(cc[&4], 4);
        assert_eq!(cc[&5], 4);
    }

    #[test]
    fn connected_components_long_chain() {
        // Label must propagate the full length of the chain.
        let g = line_graph(20);
        let cc = connected_components(&g);
        assert!(cc.values().all(|&l| l == 0));
    }

    #[test]
    fn shortest_paths_line() {
        let g = line_graph(5);
        let d = shortest_paths(&g, 0);
        for i in 0..5u64 {
            assert!((d[&i] - i as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn shortest_paths_weighted_shortcut() {
        let mut g = PropertyGraph::new();
        for i in 0..4u64 {
            g.add_vertex(i, ());
        }
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 5.0);
        g.add_edge(2, 3, 0.5);
        let d = shortest_paths(&g, 0);
        assert!((d[&3] - 2.0).abs() < 1e-9, "via 1: 1+1 < 5+0.5");
    }

    #[test]
    fn shortest_paths_unreachable_absent() {
        let mut g = PropertyGraph::new();
        g.add_vertex(0, ());
        g.add_vertex(9, ());
        let d = shortest_paths(&g, 0);
        assert!(d.contains_key(&0));
        assert!(!d.contains_key(&9));
    }

    #[test]
    fn pregel_terminates_when_all_halt() {
        let g = line_graph(3);
        let (_, steps) =
            pregel::<(), u32, (), _, _>(&g, |_, _| 0, |_, ctx| ctx.vote_to_halt(), 100);
        assert!(steps <= 1, "all halt in the first superstep, took {steps}");
    }
}
