//! Consistent-hash shard routing.
//!
//! The serving tier stands between many concurrent consumers and the
//! storage/inference backends; [`ShardMap`] decides *which* backend node a
//! key belongs to. It is a classic consistent-hash ring with virtual nodes:
//!
//! - every physical node contributes `vnodes` points on a 64-bit ring,
//! - a key routes to the first ring point clockwise from its hash,
//! - adding or removing a node only remaps the keys that fell between the
//!   changed points — roughly `keys / n` of them — which is the
//!   minimal-movement property the proptests pin down.
//!
//! Routing is a pure function of the node set and the key bytes: no
//! interior mutability, no ambient randomness, so the same map gives the
//! same answer on every platform and thread count.

use std::collections::{BTreeMap, BTreeSet};

use simclock::hash::{fnv1a, mix64};

/// FNV-1a 64-bit hash over raw bytes, finished with a splitmix64 scramble.
///
/// FNV alone clusters nearby keys (`"k-1"`, `"k-2"`, ...) on the ring; the
/// splitmix finalizer spreads them uniformly. Deterministic across
/// platforms, unlike `std::hash::DefaultHasher` which is seeded per
/// process.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

fn vnode_point(node: u32, replica: u32) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&node.to_le_bytes());
    bytes[4..].copy_from_slice(&replica.to_le_bytes());
    hash_bytes(&bytes)
}

/// A consistent-hash ring mapping keys to shard nodes.
///
/// # Examples
///
/// ```
/// use scserve::ShardMap;
///
/// let mut map = ShardMap::with_nodes(4, 64);
/// let mut home = Vec::new();
/// map.route_replicas(b"cam-1742", 1, &mut home);
/// map.remove_node(home[0]);
/// let mut next = Vec::new();
/// map.route_replicas(b"cam-1742", 1, &mut next);
/// assert_ne!(home, next, "keys of a removed node move to a survivor");
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap {
    vnodes: u32,
    ring: BTreeMap<u64, u32>,
    nodes: BTreeSet<u32>,
}

impl ShardMap {
    /// An empty ring whose future nodes each contribute `vnodes` points
    /// (clamped to at least 1).
    fn new(vnodes: u32) -> Self {
        ShardMap {
            vnodes: vnodes.max(1),
            ring: BTreeMap::new(),
            nodes: BTreeSet::new(),
        }
    }

    /// A ring pre-populated with nodes `0..n`.
    pub fn with_nodes(n: u32, vnodes: u32) -> Self {
        let mut map = ShardMap::new(vnodes);
        for node in 0..n {
            map.add_node(node);
        }
        map
    }

    /// Adds a node (idempotent). Only keys hashing between the new node's
    /// ring points and their predecessors move to it.
    pub fn add_node(&mut self, node: u32) {
        if !self.nodes.insert(node) {
            return;
        }
        for replica in 0..self.vnodes {
            // First-inserted node wins hash collisions; `or_insert` keeps
            // that stable when nodes are later removed and re-added.
            self.ring.entry(vnode_point(node, replica)).or_insert(node);
        }
    }

    /// Removes a node (idempotent); its keys redistribute to ring
    /// successors.
    pub fn remove_node(&mut self, node: u32) {
        if !self.nodes.remove(&node) {
            return;
        }
        self.ring.retain(|_, n| *n != node);
        // Re-insert points of surviving nodes that had lost a collision to
        // the removed node (vanishingly rare, but keeps the invariant that
        // every live node owns all of its non-colliding points).
        for &n in &self.nodes {
            for replica in 0..self.vnodes {
                self.ring.entry(vnode_point(n, replica)).or_insert(n);
            }
        }
    }

    /// The live node set, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is in the ring.
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.contains(&node)
    }

    /// Routes a key to up to `replicas` **distinct** nodes, written into
    /// `out` (cleared first, so one buffer serves many keys): the home node
    /// followed by the next distinct nodes clockwise. Fewer are written
    /// when the ring holds fewer nodes.
    pub fn route_replicas(&self, key: &[u8], replicas: usize, out: &mut Vec<u32>) {
        out.clear();
        let want = replicas.min(self.nodes.len());
        if want == 0 {
            return;
        }
        let h = hash_bytes(key);
        for (_, &n) in self.ring.range(h..).chain(self.ring.range(..h)) {
            if !out.contains(&n) {
                out.push(n);
                if out.len() == want {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key's home node: its first replica.
    fn home(map: &ShardMap, key: &[u8]) -> Option<u32> {
        let mut out = Vec::new();
        map.route_replicas(key, 1, &mut out);
        out.first().copied()
    }

    #[test]
    fn routes_to_live_node() {
        let map = ShardMap::with_nodes(8, 32);
        for i in 0..1000 {
            let key = format!("key-{i}");
            let node = home(&map, key.as_bytes()).unwrap();
            assert!(map.contains(node));
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let map = ShardMap::new(16);
        assert_eq!(home(&map, b"x"), None);
        let mut reps = vec![7];
        map.route_replicas(b"x", 3, &mut reps);
        assert!(reps.is_empty(), "the buffer is cleared");
    }

    #[test]
    fn routing_is_stable() {
        let a = ShardMap::with_nodes(5, 64);
        let b = ShardMap::with_nodes(5, 64);
        for i in 0..500 {
            let key = format!("k{i}");
            assert_eq!(home(&a, key.as_bytes()), home(&b, key.as_bytes()));
        }
        // Pinned: a changed hash would silently re-home every key.
        assert_eq!(hash_bytes(b"k-00001"), 0x656f_c451_6b23_d0d4);
    }

    #[test]
    fn replicas_are_distinct_and_lead_with_home() {
        let map = ShardMap::with_nodes(6, 48);
        let mut reps = Vec::new();
        for i in 0..200 {
            let key = format!("k{i}");
            map.route_replicas(key.as_bytes(), 3, &mut reps);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], home(&map, key.as_bytes()).unwrap());
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct nodes");
        }
    }

    #[test]
    fn replicas_clamped_to_ring_size() {
        let map = ShardMap::with_nodes(2, 16);
        let mut reps = Vec::new();
        map.route_replicas(b"k", 5, &mut reps);
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn removal_only_moves_keys_of_the_removed_node() {
        let mut map = ShardMap::with_nodes(8, 64);
        let keys: Vec<String> = (0..2000).map(|i| format!("key-{i}")).collect();
        let before: Vec<u32> = keys
            .iter()
            .map(|k| home(&map, k.as_bytes()).unwrap())
            .collect();
        map.remove_node(3);
        for (key, &was) in keys.iter().zip(&before) {
            let now = home(&map, key.as_bytes()).unwrap();
            if was != 3 {
                assert_eq!(now, was, "key {key} moved although its node survived");
            } else {
                assert_ne!(now, 3);
            }
        }
    }

    #[test]
    fn add_then_remove_round_trips() {
        let mut map = ShardMap::with_nodes(4, 64);
        let keys: Vec<String> = (0..500).map(|i| format!("k{i}")).collect();
        let before: Vec<u32> = keys
            .iter()
            .map(|k| home(&map, k.as_bytes()).unwrap())
            .collect();
        map.add_node(99);
        map.remove_node(99);
        let after: Vec<u32> = keys
            .iter()
            .map(|k| home(&map, k.as_bytes()).unwrap())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let map = ShardMap::with_nodes(8, 128);
        let mut counts = [0usize; 8];
        for i in 0..8000 {
            let key = format!("key-{i}");
            counts[home(&map, key.as_bytes()).unwrap() as usize] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                c > 300 && c < 2500,
                "node {n} owns {c}/8000 keys — ring badly skewed"
            );
        }
    }
}
