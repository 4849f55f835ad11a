//! Tiered topologies of compute nodes and network links.

use simclock::SimDuration;

/// The four tiers of the paper's fog model (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Smartphones, Raspberry Pis: collect sensor/camera data.
    Edge,
    /// Embedded accelerators (NVIDIA Jetson-class): aggregate edges, run the
    /// first layers of models.
    Fog,
    /// Analysis servers: train models, run full inference.
    Server,
    /// Federated cloud (AWS/Azure + GENI/XSEDE): long-term storage & mining.
    Cloud,
}

impl Tier {
    /// All tiers bottom-up.
    pub const ALL: [Tier; 4] = [Tier::Edge, Tier::Fog, Tier::Server, Tier::Cloud];

    /// Lowercase tier name, used in metric names
    /// (e.g. `scfog_sim_queue_wait_edge_seconds`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Edge => "edge",
            Tier::Fog => "fog",
            Tier::Server => "server",
            Tier::Cloud => "cloud",
        }
    }

    /// The tier above, if any.
    pub fn upstream(self) -> Option<Tier> {
        match self {
            Tier::Edge => Some(Tier::Fog),
            Tier::Fog => Some(Tier::Server),
            Tier::Server => Some(Tier::Cloud),
            Tier::Cloud => None,
        }
    }
}

/// Identifier of a node in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FogNodeId(pub u32);

/// Hardware description of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Sustained compute throughput in operations per second.
    pub flops: f64,
    /// Memory in MB (bounds model size; informational in the simulator).
    pub memory_mb: u64,
}

/// A directed network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

/// Default per-tier hardware (edge ≈ Raspberry Pi, fog ≈ Jetson, server ≈
/// GPU box, cloud ≈ elastic) and uplink characteristics (edge uplinks are
/// slow cellular/WiFi; server→cloud rides Internet2).
fn default_spec(tier: Tier) -> NodeSpec {
    match tier {
        Tier::Edge => NodeSpec {
            flops: 5e8,
            memory_mb: 1_024,
        },
        Tier::Fog => NodeSpec {
            flops: 5e9,
            memory_mb: 8_192,
        },
        Tier::Server => NodeSpec {
            flops: 1e11,
            memory_mb: 131_072,
        },
        Tier::Cloud => NodeSpec {
            flops: 1e12,
            memory_mb: 1_048_576,
        },
    }
}

fn default_uplink(tier: Tier) -> Link {
    match tier {
        Tier::Edge => Link {
            latency: SimDuration::from_millis(5),
            bandwidth_bps: 2e6,
        },
        Tier::Fog => Link {
            latency: SimDuration::from_millis(10),
            bandwidth_bps: 2e7,
        },
        Tier::Server => Link {
            latency: SimDuration::from_millis(20),
            bandwidth_bps: 1.25e9,
        },
        Tier::Cloud => Link {
            latency: SimDuration::ZERO,
            bandwidth_bps: f64::INFINITY,
        },
    }
}

/// A tiered topology: every non-cloud node has exactly one upstream parent.
///
/// Ids are dense — a new node's id is `len()` — so per-node
/// state, here and in the simulator, is a `Vec` indexed by id.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<(FogNodeId, Tier, NodeSpec)>,
    parents: Vec<Option<(FogNodeId, Link)>>,
}

impl Topology {
    /// Builds the canonical four-tier tree: one cloud, `servers` analysis
    /// servers, `fogs_per_server` fog nodes per server, `edges_per_fog` edge
    /// devices per fog node, with default hardware and links.
    ///
    /// # Panics
    ///
    /// Panics if any fan-out is zero.
    pub fn four_tier(edges_per_fog: usize, fogs_per_server: usize, servers: usize) -> Self {
        assert!(
            edges_per_fog > 0 && fogs_per_server > 0 && servers > 0,
            "fan-outs must be positive"
        );
        let mut topo = Topology {
            nodes: Vec::new(),
            parents: Vec::new(),
        };
        let cloud = topo.add_node(Tier::Cloud, default_spec(Tier::Cloud));
        for _ in 0..servers {
            let server = topo.add_node(Tier::Server, default_spec(Tier::Server));
            topo.connect(server, cloud, default_uplink(Tier::Server));
            for _ in 0..fogs_per_server {
                let fog = topo.add_node(Tier::Fog, default_spec(Tier::Fog));
                topo.connect(fog, server, default_uplink(Tier::Fog));
                for _ in 0..edges_per_fog {
                    let edge = topo.add_node(Tier::Edge, default_spec(Tier::Edge));
                    topo.connect(edge, fog, default_uplink(Tier::Edge));
                }
            }
        }
        topo
    }

    /// Adds a node, returning its id.
    fn add_node(&mut self, tier: Tier, spec: NodeSpec) -> FogNodeId {
        let id = FogNodeId(self.nodes.len() as u32);
        self.nodes.push((id, tier, spec));
        self.parents.push(None);
        id
    }

    /// Declares `parent` as `child`'s upstream over `link`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown `child`.
    fn connect(&mut self, child: FogNodeId, parent: FogNodeId, link: Link) {
        self.parents[child.0 as usize] = Some((parent, link));
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The tier of a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn tier(&self, id: FogNodeId) -> Tier {
        self.nodes[id.0 as usize].1
    }

    /// The hardware spec of a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn spec(&self, id: FogNodeId) -> NodeSpec {
        self.nodes[id.0 as usize].2
    }

    /// The upstream parent and link of a node, if any.
    pub fn parent(&self, id: FogNodeId) -> Option<(FogNodeId, Link)> {
        self.parents.get(id.0 as usize).copied().flatten()
    }

    /// All nodes of a tier.
    pub fn nodes_in_tier(&self, tier: Tier) -> Vec<FogNodeId> {
        self.nodes
            .iter()
            .filter(|(_, t, _)| *t == tier)
            .map(|(id, _, _)| *id)
            .collect()
    }

    /// The upstream chain from `id` (exclusive) to the root (inclusive).
    pub fn path_to_root(&self, id: FogNodeId) -> Vec<(FogNodeId, Link)> {
        let mut path = Vec::new();
        let mut cur = id;
        while let Some((parent, link)) = self.parent(cur) {
            path.push((parent, link));
            cur = parent;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_tier_counts() {
        let t = Topology::four_tier(4, 3, 2);
        assert_eq!(t.nodes_in_tier(Tier::Cloud).len(), 1);
        assert_eq!(t.nodes_in_tier(Tier::Server).len(), 2);
        assert_eq!(t.nodes_in_tier(Tier::Fog).len(), 6);
        assert_eq!(t.nodes_in_tier(Tier::Edge).len(), 24);
        assert_eq!(t.len(), 33);
    }

    #[test]
    fn every_edge_reaches_cloud() {
        let t = Topology::four_tier(3, 2, 2);
        for edge in t.nodes_in_tier(Tier::Edge) {
            let path = t.path_to_root(edge);
            assert_eq!(path.len(), 3, "edge→fog→server→cloud");
            assert_eq!(t.tier(path[0].0), Tier::Fog);
            assert_eq!(t.tier(path[1].0), Tier::Server);
            assert_eq!(t.tier(path[2].0), Tier::Cloud);
        }
    }

    #[test]
    fn tiers_get_faster_upstream() {
        let t = Topology::four_tier(1, 1, 1);
        let edge = t.nodes_in_tier(Tier::Edge)[0];
        let fog = t.nodes_in_tier(Tier::Fog)[0];
        let server = t.nodes_in_tier(Tier::Server)[0];
        assert!(t.spec(fog).flops > t.spec(edge).flops);
        assert!(t.spec(server).flops > t.spec(fog).flops);
    }

    #[test]
    fn upstream_ordering() {
        assert_eq!(Tier::Edge.upstream(), Some(Tier::Fog));
        assert_eq!(Tier::Cloud.upstream(), None);
    }

    #[test]
    fn cloud_has_no_parent() {
        let t = Topology::four_tier(1, 1, 1);
        let cloud = t.nodes_in_tier(Tier::Cloud)[0];
        assert!(t.parent(cloud).is_none());
    }
}
