//! A YARN-like cluster resource scheduler.
//!
//! Node managers advertise `(memory, vcores)` capacities; applications submit
//! container requests into queues; a scheduling policy decides allocation
//! order. Three policies are provided, matching the schedulers Hadoop ships:
//! FIFO, Capacity (per-queue shares), and Fair (least-allocated app first).

use std::collections::{BTreeMap, VecDeque};

use sctelemetry::TelemetryHandle;

/// Metric name of the allocated-containers counter.
pub const METRIC_CONTAINERS: &str = "sccompute_yarn_containers_total";
/// Metric name of the pending-requests gauge (refreshed per pass).
pub const METRIC_PENDING: &str = "sccompute_yarn_pending_requests";

/// A resource vector: memory and virtual cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Resource {
    /// Memory in MB.
    pub memory_mb: u64,
    /// Virtual cores.
    pub vcores: u32,
}

impl Resource {
    /// Creates a resource vector.
    pub fn new(memory_mb: u64, vcores: u32) -> Self {
        Resource { memory_mb, vcores }
    }

    /// Whether `self` can accommodate `other`.
    pub fn fits(&self, other: &Resource) -> bool {
        self.memory_mb >= other.memory_mb && self.vcores >= other.vcores
    }

    fn add(&mut self, other: &Resource) {
        self.memory_mb += other.memory_mb;
        self.vcores += other.vcores;
    }

    fn sub(&mut self, other: &Resource) {
        self.memory_mb -= other.memory_mb;
        self.vcores -= other.vcores;
    }
}

/// Identifier of a node manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct YarnNodeId(pub u32);

/// Identifier of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

/// Identifier of an allocated container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

/// An allocated container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Container id.
    pub id: ContainerId,
    /// Owning application.
    pub app: AppId,
    /// Host node.
    pub node: YarnNodeId,
    /// Allocated resources.
    pub resource: Resource,
}

/// Scheduling policies.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// First-come, first-served across all apps.
    Fifo,
    /// Named queues with relative capacity weights; requests name a queue;
    /// the queue furthest below its share schedules first.
    Capacity(Vec<(String, f64)>),
    /// The app holding the least memory schedules first.
    Fair,
}

#[derive(Debug, Clone)]
struct PendingRequest {
    app: AppId,
    queue: String,
    resource: Resource,
    seq: u64,
}

/// The resource manager: tracks nodes, queues requests, allocates containers
/// per the configured policy.
///
/// # Examples
///
/// ```
/// use sccompute::yarn::{AppId, Policy, Resource, ResourceManager};
///
/// let mut rm = ResourceManager::new(Policy::Fifo);
/// rm.add_node(Resource::new(8192, 8));
/// rm.submit(AppId(1), "default", Resource::new(1024, 1));
/// let allocated = rm.schedule();
/// assert_eq!(allocated.len(), 1);
/// ```
#[derive(Debug)]
pub struct ResourceManager {
    policy: Policy,
    nodes: Vec<(YarnNodeId, Resource, Resource)>, // (id, capacity, used)
    pending: VecDeque<PendingRequest>,
    containers: BTreeMap<ContainerId, Container>,
    app_usage: BTreeMap<AppId, Resource>,
    queue_usage: BTreeMap<String, u64>, // memory per queue
    next_container: u64,
    next_seq: u64,
    telemetry: TelemetryHandle,
}

impl ResourceManager {
    /// Creates a resource manager with the given policy.
    pub fn new(policy: Policy) -> Self {
        ResourceManager {
            policy,
            nodes: Vec::new(),
            pending: VecDeque::new(),
            containers: BTreeMap::new(),
            app_usage: BTreeMap::new(),
            queue_usage: BTreeMap::new(),
            next_container: 0,
            next_seq: 0,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches telemetry: allocations count into [`METRIC_CONTAINERS`], and
    /// [`METRIC_PENDING`] tracks the queue depth.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Registers a node manager, returning its id.
    pub fn add_node(&mut self, capacity: Resource) -> YarnNodeId {
        let id = YarnNodeId(self.nodes.len() as u32);
        self.nodes.push((id, capacity, Resource::default()));
        id
    }

    /// Submits a container request for `app` into `queue`.
    pub fn submit(&mut self, app: AppId, queue: &str, resource: Resource) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(PendingRequest {
            app,
            queue: queue.to_string(),
            resource,
            seq,
        });
    }

    /// Number of requests waiting for resources.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Live containers.
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }

    /// Current usage of an app.
    pub fn app_usage(&self, app: AppId) -> Resource {
        self.app_usage.get(&app).copied().unwrap_or_default()
    }

    /// Cluster utilization in `[0, 1]` by memory.
    pub fn utilization(&self) -> f64 {
        let cap: u64 = self.nodes.iter().map(|(_, c, _)| c.memory_mb).sum();
        let used: u64 = self.nodes.iter().map(|(_, _, u)| u.memory_mb).sum();
        if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        }
    }

    fn request_priority(&self, req: &PendingRequest) -> (u64, u64) {
        match &self.policy {
            Policy::Fifo => (0, req.seq),
            Policy::Fair => {
                // Least current memory usage first; FIFO tiebreak.
                let used = self
                    .app_usage
                    .get(&req.app)
                    .map(|r| r.memory_mb)
                    .unwrap_or(0);
                (used, req.seq)
            }
            Policy::Capacity(queues) => {
                // Queue furthest below its weighted share first. Scale usage
                // by 1/weight so a queue with twice the weight tolerates
                // twice the usage before losing priority.
                let weight = queues
                    .iter()
                    .find(|(name, _)| name == &req.queue)
                    .map(|(_, w)| *w)
                    .unwrap_or(0.01);
                let used = *self.queue_usage.get(&req.queue).unwrap_or(&0) as f64;
                ((used / weight) as u64, req.seq)
            }
        }
    }

    /// Runs one scheduling pass: allocates as many pending requests as fit,
    /// in policy order. Returns the containers allocated this pass.
    pub fn schedule(&mut self) -> Vec<Container> {
        let mut allocated = Vec::new();
        loop {
            // Pick the highest-priority schedulable request.
            let mut order: Vec<usize> = (0..self.pending.len()).collect();
            order.sort_by_key(|&i| self.request_priority(&self.pending[i]));
            let mut scheduled_any = false;
            for idx in order {
                let req = self.pending[idx].clone();
                // First node with room (lowest id — deterministic).
                let node = self.nodes.iter().position(|(_, cap, used)| {
                    let mut free = *cap;
                    free.sub(used);
                    free.fits(&req.resource)
                });
                if let Some(n) = node {
                    self.nodes[n].2.add(&req.resource);
                    let id = ContainerId(self.next_container);
                    self.next_container += 1;
                    let container = Container {
                        id,
                        app: req.app,
                        node: self.nodes[n].0,
                        resource: req.resource,
                    };
                    self.containers.insert(id, container.clone());
                    self.app_usage
                        .entry(req.app)
                        .or_default()
                        .add(&req.resource);
                    *self.queue_usage.entry(req.queue.clone()).or_default() +=
                        req.resource.memory_mb;
                    self.pending.remove(idx);
                    allocated.push(container);
                    scheduled_any = true;
                    break; // re-evaluate priorities after each allocation
                }
            }
            if !scheduled_any {
                break;
            }
        }
        self.telemetry.counter_add(
            METRIC_CONTAINERS,
            "containers allocated by the resource manager",
            allocated.len() as u64,
        );
        self.telemetry.gauge_set(
            METRIC_PENDING,
            "container requests still waiting for resources",
            self.pending.len() as i64,
        );
        allocated
    }

    /// Releases a container, freeing its node resources.
    ///
    /// Returns `false` if the container was unknown.
    pub fn release(&mut self, id: ContainerId) -> bool {
        let Some(c) = self.containers.remove(&id) else {
            return false;
        };
        if let Some((_, _, used)) = self.nodes.iter_mut().find(|(n, _, _)| *n == c.node) {
            used.sub(&c.resource);
        }
        if let Some(u) = self.app_usage.get_mut(&c.app) {
            u.sub(&c.resource);
        }
        true
    }

    /// Invariant check: no node over-allocated. (Used by property tests.)
    pub fn check_invariants(&self) -> bool {
        self.nodes.iter().all(|(_, cap, used)| cap.fits(used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(policy: Policy) -> ResourceManager {
        let mut rm = ResourceManager::new(policy);
        rm.add_node(Resource::new(4096, 4));
        rm.add_node(Resource::new(4096, 4));
        rm
    }

    #[test]
    fn fifo_allocates_in_order() {
        let mut rm = small_cluster(Policy::Fifo);
        rm.submit(AppId(1), "q", Resource::new(1024, 1));
        rm.submit(AppId(2), "q", Resource::new(1024, 1));
        let out = rm.schedule();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].app, AppId(1));
        assert_eq!(out[1].app, AppId(2));
    }

    #[test]
    fn respects_capacity_limits() {
        let mut rm = small_cluster(Policy::Fifo);
        for _ in 0..10 {
            rm.submit(AppId(1), "q", Resource::new(1024, 1));
        }
        let out = rm.schedule();
        assert_eq!(out.len(), 8, "2 nodes x 4 cores/4GB fit 8 containers");
        assert_eq!(rm.pending_count(), 2);
        assert!(rm.check_invariants());
        assert!((rm.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn release_frees_capacity() {
        let mut rm = small_cluster(Policy::Fifo);
        rm.submit(AppId(1), "q", Resource::new(4096, 4));
        let c = rm.schedule()[0].clone();
        rm.submit(AppId(2), "q", Resource::new(4096, 4));
        rm.submit(AppId(3), "q", Resource::new(4096, 4));
        assert_eq!(rm.schedule().len(), 1, "one node still free");
        assert!(rm.release(c.id));
        assert_eq!(rm.schedule().len(), 1, "released capacity reused");
        assert!(!rm.release(c.id), "double release rejected");
    }

    #[test]
    fn fair_interleaves_apps() {
        let mut rm = small_cluster(Policy::Fair);
        // App 1 floods first, app 2 submits after; fair policy should still
        // give app 2 roughly half.
        for _ in 0..6 {
            rm.submit(AppId(1), "q", Resource::new(1024, 1));
        }
        for _ in 0..6 {
            rm.submit(AppId(2), "q", Resource::new(1024, 1));
        }
        rm.schedule();
        let u1 = rm.app_usage(AppId(1)).memory_mb;
        let u2 = rm.app_usage(AppId(2)).memory_mb;
        assert_eq!(u1, u2, "fair share: {u1} vs {u2}");
    }

    #[test]
    fn fifo_starves_late_app() {
        let mut rm = small_cluster(Policy::Fifo);
        for _ in 0..8 {
            rm.submit(AppId(1), "q", Resource::new(1024, 1));
        }
        for _ in 0..8 {
            rm.submit(AppId(2), "q", Resource::new(1024, 1));
        }
        rm.schedule();
        assert_eq!(rm.app_usage(AppId(1)).memory_mb, 8192);
        assert_eq!(
            rm.app_usage(AppId(2)).memory_mb,
            0,
            "FIFO starves the latecomer"
        );
    }

    #[test]
    fn capacity_queues_share_by_weight() {
        let mut rm = small_cluster(Policy::Capacity(vec![
            ("prod".into(), 0.75),
            ("dev".into(), 0.25),
        ]));
        for _ in 0..8 {
            rm.submit(AppId(1), "prod", Resource::new(1024, 1));
            rm.submit(AppId(2), "dev", Resource::new(1024, 1));
        }
        rm.schedule();
        let prod = rm.app_usage(AppId(1)).memory_mb;
        let dev = rm.app_usage(AppId(2)).memory_mb;
        assert_eq!(prod + dev, 8192);
        assert!(prod >= dev * 2, "prod ({prod}) should get ~3x dev ({dev})");
    }

    #[test]
    fn oversized_request_stays_pending() {
        let mut rm = small_cluster(Policy::Fifo);
        rm.submit(AppId(1), "q", Resource::new(10_000, 1));
        assert!(rm.schedule().is_empty());
        assert_eq!(rm.pending_count(), 1);
    }

    #[test]
    fn empty_cluster_utilization_zero() {
        let rm = ResourceManager::new(Policy::Fifo);
        assert_eq!(rm.utilization(), 0.0);
    }

    #[test]
    fn telemetry_tracks_scheduling() {
        let t = sctelemetry::Telemetry::shared();
        let mut rm = small_cluster(Policy::Fifo).with_telemetry(t.handle());
        for _ in 0..10 {
            rm.submit(AppId(1), "q", Resource::new(1024, 1));
        }
        let out = rm.schedule();

        let reg = t.registry();
        assert_eq!(
            reg.get(METRIC_CONTAINERS)
                .unwrap()
                .as_counter()
                .unwrap()
                .get(),
            out.len() as u64
        );
        assert_eq!(
            reg.get(METRIC_PENDING).unwrap().as_gauge().unwrap().get(),
            rm.pending_count() as i64
        );
    }
}
