//! The cluster facade: client API, placement, failures, re-replication.

use bytes::Bytes;
use scfault::{FaultEvent, FaultKind, FaultPlan};
use sctelemetry::{Report, TelemetryHandle};
use simclock::{SeededRng, SimDuration, SimTime, VirtualClock};

use crate::block::{Block, BlockId};
use crate::datanode::{DataNode, NodeId};
use crate::error::DfsError;
use crate::namenode::{FileMeta, NameNode};

/// Metric name of the block-writes counter (one per logical block).
pub const METRIC_BLOCK_WRITES: &str = "scdfs_block_writes_total";
/// Metric name of the replica-bytes-written counter.
pub const METRIC_WRITE_BYTES: &str = "scdfs_block_write_bytes_total";
/// Metric name of the successful block-reads counter.
pub const METRIC_BLOCK_READS: &str = "scdfs_block_reads_total";
/// Metric name of the replicas-created-by-repair counter.
pub const METRIC_REPLICATIONS: &str = "scdfs_replication_replicas_total";
/// Metric name of the corrupt-replicas-dropped-by-scrub counter.
pub const METRIC_SCRUBBED: &str = "scdfs_scrub_corrupt_replicas_total";
/// Metric name of the repair-MTTR histogram (seconds from first
/// under-replication to full replication, one sample per outage episode).
pub const METRIC_MTTR: &str = "scdfs_repair_mttr_seconds";

/// Aggregate cluster statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// Total datanodes.
    pub nodes: usize,
    /// Alive datanodes.
    pub alive_nodes: usize,
    /// Files in the namespace.
    pub files: usize,
    /// Distinct blocks tracked by the namenode.
    pub blocks: usize,
    /// Blocks with fewer alive replicas than the replication factor.
    pub under_replicated: usize,
    /// Blocks with zero alive replicas.
    pub lost: usize,
    /// Total replica bytes across alive nodes.
    pub used_bytes: usize,
}

impl Report for ClusterStats {
    fn kv(&self) -> Vec<(String, f64)> {
        vec![
            ("nodes".to_string(), self.nodes as f64),
            ("alive_nodes".to_string(), self.alive_nodes as f64),
            ("files".to_string(), self.files as f64),
            ("blocks".to_string(), self.blocks as f64),
            ("under_replicated".to_string(), self.under_replicated as f64),
            ("lost".to_string(), self.lost as f64),
            ("used_bytes".to_string(), self.used_bytes as f64),
        ]
    }
}

/// What happened across a [`DfsCluster::run_fault_plan`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Fault events that took effect on this cluster.
    pub faults_applied: usize,
    /// Replicas created by re-replication over the run.
    pub replicas_repaired: usize,
    /// Corrupt replicas detected and dropped by the scrubber.
    pub corrupt_replicas_dropped: usize,
    /// Completed outage episodes (degraded → fully replicated again).
    pub repairs: usize,
    /// Mean time-to-repair across completed episodes, in sim-seconds.
    pub mttr_mean_s: f64,
    /// Worst time-to-repair across completed episodes, in sim-seconds.
    pub mttr_max_s: f64,
    /// Whether the cluster was still degraded when the horizon ran out.
    pub unrepaired_at_end: bool,
    /// Cluster statistics at the end of the run.
    pub final_stats: ClusterStats,
}

impl Report for RepairReport {
    fn kv(&self) -> Vec<(String, f64)> {
        vec![
            ("faults_applied".to_string(), self.faults_applied as f64),
            (
                "replicas_repaired".to_string(),
                self.replicas_repaired as f64,
            ),
            (
                "corrupt_replicas_dropped".to_string(),
                self.corrupt_replicas_dropped as f64,
            ),
            ("repairs".to_string(), self.repairs as f64),
            ("mttr_mean_s".to_string(), self.mttr_mean_s),
            ("mttr_max_s".to_string(), self.mttr_max_s),
            (
                "unrepaired_at_end".to_string(),
                if self.unrepaired_at_end { 1.0 } else { 0.0 },
            ),
            (
                "under_replicated".to_string(),
                self.final_stats.under_replicated as f64,
            ),
            ("lost".to_string(), self.final_stats.lost as f64),
        ]
    }
}

/// An HDFS-like cluster: one namenode plus `n` datanodes.
///
/// All operations are synchronous and deterministic under the construction
/// seed. See the crate docs for a usage example.
#[derive(Debug)]
pub struct DfsCluster {
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    replication: usize,
    block_size: usize,
    clock: VirtualClock,
    rng: SeededRng,
    telemetry: TelemetryHandle,
}

impl DfsCluster {
    /// Creates a cluster of `nodes` datanodes with the given `replication`
    /// factor and `block_size` in bytes.
    ///
    /// # Errors
    ///
    /// [`DfsError::BadConfig`] if any parameter is zero or
    /// `replication > nodes`.
    pub fn new(
        nodes: usize,
        replication: usize,
        block_size: usize,
        seed: u64,
    ) -> Result<Self, DfsError> {
        if nodes == 0 || replication == 0 || block_size == 0 {
            return Err(DfsError::BadConfig(
                "nodes, replication, block_size must be positive".into(),
            ));
        }
        if replication > nodes {
            return Err(DfsError::BadConfig(format!(
                "replication {replication} exceeds node count {nodes}"
            )));
        }
        Ok(DfsCluster {
            namenode: NameNode::new(),
            datanodes: (0..nodes)
                .map(|i| DataNode::new(NodeId(i as u32)))
                .collect(),
            replication,
            block_size,
            clock: VirtualClock::new(),
            rng: SeededRng::new(seed),
            telemetry: TelemetryHandle::disabled(),
        })
    }

    /// Attaches telemetry: block reads/writes count into the `scdfs_*`
    /// metrics and node failures / re-replication emit sim-time events.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Read-only access to the namenode.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// Read-only access to a datanode.
    pub fn datanode(&self, id: NodeId) -> Option<&DataNode> {
        self.datanodes.get(id.0 as usize)
    }

    fn alive_ids(&self) -> Vec<NodeId> {
        self.datanodes
            .iter()
            .filter(|d| d.is_alive())
            .map(|d| d.id())
            .collect()
    }

    /// Chooses `k` distinct targets among alive nodes, preferring emptier
    /// nodes (a simplification of HDFS's rack-aware spread) with random
    /// tie-breaking.
    fn choose_targets(&mut self, k: usize, exclude: &[NodeId]) -> Result<Vec<NodeId>, DfsError> {
        let mut candidates: Vec<NodeId> = self
            .alive_ids()
            .into_iter()
            .filter(|id| !exclude.contains(id))
            .collect();
        if candidates.len() < k {
            return Err(DfsError::NotEnoughNodes {
                alive: candidates.len(),
                needed: k,
            });
        }
        // Shuffle first so equal-load nodes tie-break randomly, then stable
        // sort by load.
        self.rng.shuffle(&mut candidates);
        candidates.sort_by_key(|id| self.datanodes[id.0 as usize].used_bytes());
        candidates.truncate(k);
        Ok(candidates)
    }

    fn write_block(&mut self, data: &[u8]) -> Result<BlockId, DfsError> {
        let id = self.namenode.allocate_block();
        let targets = self.choose_targets(self.replication, &[])?;
        // Pipelined write: each target stores the block, then acks.
        for t in &targets {
            let block = Block::new(id, Bytes::copy_from_slice(data));
            self.datanodes[t.0 as usize].store(block)?;
            self.namenode.add_location(id, *t);
        }
        self.telemetry
            .counter_inc(METRIC_BLOCK_WRITES, "logical blocks written");
        self.telemetry.counter_add(
            METRIC_WRITE_BYTES,
            "replica bytes written (block size x replication)",
            (data.len() * targets.len()) as u64,
        );
        Ok(id)
    }

    fn split_and_write(&mut self, data: &[u8]) -> Result<Vec<BlockId>, DfsError> {
        if data.is_empty() {
            return Ok(Vec::new());
        }
        data.chunks(self.block_size)
            .map(|chunk| self.write_block(chunk))
            .collect()
    }

    /// Creates a file with the given contents, splitting into blocks and
    /// replicating each.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileExists`] on a duplicate path;
    /// [`DfsError::NotEnoughNodes`] if alive nodes < replication.
    pub fn create(&mut self, path: &str, data: &[u8]) -> Result<(), DfsError> {
        if self.namenode.exists(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        let blocks = self.split_and_write(data)?;
        self.namenode.create_file(
            path,
            FileMeta {
                blocks,
                len: data.len(),
            },
        )
    }

    /// Appends to an existing file (new blocks; no partial-block fill, like
    /// HDFS's append in spirit).
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if the path is absent.
    pub fn append(&mut self, path: &str, data: &[u8]) -> Result<(), DfsError> {
        self.namenode.file(path)?; // existence check first
        let blocks = self.split_and_write(data)?;
        self.namenode.append_blocks(path, &blocks, data.len())
    }

    /// Reads a whole file, picking an alive, checksum-valid replica per block.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`], or [`DfsError::BlockUnavailable`] if some
    /// block has no healthy alive replica.
    pub fn read(&self, path: &str) -> Result<Vec<u8>, DfsError> {
        let meta = self.namenode.file(path)?;
        let mut out = Vec::with_capacity(meta.len);
        for &b in &meta.blocks {
            out.extend_from_slice(&self.read_block(b)?);
        }
        Ok(out)
    }

    /// Reads a single block from any healthy replica.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockUnavailable`] if no alive replica passes its
    /// checksum.
    fn read_block(&self, block: BlockId) -> Result<Bytes, DfsError> {
        for &node in self.namenode.locations(block) {
            if let Some(dn) = self.datanode(node) {
                if let Ok(data) = dn.read(block) {
                    self.telemetry
                        .counter_inc(METRIC_BLOCK_READS, "successful block reads");
                    return Ok(data);
                }
            }
        }
        Err(DfsError::BlockUnavailable(block))
    }

    /// Deletes a file and reclaims its replicas.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if absent.
    pub fn delete(&mut self, path: &str) -> Result<(), DfsError> {
        // Snapshot locations before the namenode forgets them.
        let meta = self.namenode.file(path)?.clone();
        let locs: Vec<(BlockId, Vec<NodeId>)> = meta
            .blocks
            .iter()
            .map(|&b| (b, self.namenode.locations(b).to_vec()))
            .collect();
        self.namenode.remove_file(path)?;
        for (b, nodes) in locs {
            for n in nodes {
                self.datanodes[n.0 as usize].remove(b);
            }
        }
        Ok(())
    }

    /// Marks a datanode dead. Its replicas become unavailable until restore
    /// or re-replication.
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownNode`] for an out-of-range id.
    pub fn kill_node(&mut self, node: u32) -> Result<(), DfsError> {
        let dn = self
            .datanodes
            .get_mut(node as usize)
            .ok_or(DfsError::UnknownNode(NodeId(node)))?;
        dn.kill();
        self.telemetry.event(
            "scdfs",
            "node/kill",
            self.clock.now(),
            &format!("node {node}"),
        );
        Ok(())
    }

    /// Restores a dead datanode; its surviving replicas re-register via a
    /// block report.
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownNode`] for an out-of-range id.
    fn restore_node(&mut self, node: u32) -> Result<(), DfsError> {
        let dn = self
            .datanodes
            .get_mut(node as usize)
            .ok_or(DfsError::UnknownNode(NodeId(node)))?;
        dn.restore();
        let id = dn.id();
        for b in dn.block_report() {
            self.namenode.add_location(b, id);
        }
        self.telemetry.event(
            "scdfs",
            "node/restore",
            self.clock.now(),
            &format!("node {node}"),
        );
        Ok(())
    }

    /// Advances the virtual clock and records heartbeats from alive nodes.
    pub fn tick(&mut self, dt: simclock::SimDuration) -> SimTime {
        let now = self.clock.advance(dt);
        for dn in &mut self.datanodes {
            if dn.is_alive() {
                dn.heartbeat(now);
            }
        }
        now
    }

    /// Scans for under-replicated blocks and copies them from a healthy
    /// replica to fresh targets — HDFS's re-replication on datanode loss.
    /// Returns the number of new replicas created.
    pub fn re_replicate(&mut self) -> usize {
        // Collect work first (borrow discipline).
        let mut work: Vec<(BlockId, Vec<NodeId>, usize)> = Vec::new();
        for (block, locs) in self.namenode.all_blocks() {
            let alive = locs
                .iter()
                .filter(|n| self.datanodes[n.0 as usize].is_alive())
                .count();
            if alive > 0 && alive < self.replication {
                work.push((block, locs.to_vec(), self.replication - alive));
            }
        }
        let mut created = 0;
        for (block, all_locs, missing) in work {
            // Read from any healthy replica.
            let Ok(data) = self.read_block(block) else {
                continue;
            };
            let Ok(targets) = self.choose_targets(missing, &all_locs) else {
                continue;
            };
            for t in targets {
                let replica = Block::new(block, data.clone());
                if self.datanodes[t.0 as usize].store(replica).is_ok() {
                    self.namenode.add_location(block, t);
                    created += 1;
                }
            }
        }
        if created > 0 && self.telemetry.is_enabled() {
            self.telemetry.counter_add(
                METRIC_REPLICATIONS,
                "replicas created by re-replication",
                created as u64,
            );
            self.telemetry.event(
                "scdfs",
                "re_replicate",
                self.clock.now(),
                &format!("{created} replicas restored"),
            );
        }
        created
    }

    /// Checksum-scans every replica on alive datanodes and drops the corrupt
    /// ones (from both the datanode and the namenode's location map), leaving
    /// the block under-replicated so [`DfsCluster::re_replicate`] can heal it
    /// from a healthy copy — HDFS's background block scanner. Returns the
    /// number of replicas dropped.
    fn scrub(&mut self) -> usize {
        let mut bad: Vec<(NodeId, BlockId)> = Vec::new();
        for dn in &self.datanodes {
            if !dn.is_alive() {
                continue;
            }
            for b in dn.block_report() {
                if matches!(dn.read(b), Err(DfsError::CorruptBlock(..))) {
                    bad.push((dn.id(), b));
                }
            }
        }
        for &(n, b) in &bad {
            self.datanodes[n.0 as usize].remove(b);
            self.namenode.remove_location(b, n);
        }
        if !bad.is_empty() {
            self.telemetry.counter_add(
                METRIC_SCRUBBED,
                "corrupt replicas dropped by the checksum scrubber",
                bad.len() as u64,
            );
            self.telemetry.event(
                "scdfs",
                "scrub",
                self.clock.now(),
                &format!("{} corrupt replicas dropped", bad.len()),
            );
        }
        bad.len()
    }

    /// Applies one fault event to the cluster: crashes kill datanodes,
    /// restarts revive them, and corruptions flip bits in stored replicas.
    /// Link and message faults don't apply to this layer and are ignored, as
    /// are events naming nodes or blocks the cluster doesn't have. Returns
    /// whether the event took effect (and was recorded to telemetry).
    pub fn apply_fault(&mut self, event: &FaultEvent) -> bool {
        let applied = match event.kind {
            FaultKind::NodeCrash { node } => self.kill_node(node).is_ok(),
            FaultKind::NodeRestart { node } => self.restore_node(node).is_ok(),
            FaultKind::BlockCorrupt { node, block } => self
                .datanodes
                .get_mut(node as usize)
                .is_some_and(|dn| dn.corrupt_block(BlockId(block))),
            _ => false,
        };
        if applied {
            scfault::record_injection(&self.telemetry, event);
        }
        applied
    }

    /// Runs the cluster under a [`FaultPlan`] for `horizon` of sim-time,
    /// ticking every `repair_interval`: due fault events are applied, then
    /// each tick scrubs corrupt replicas and re-replicates under-replicated
    /// blocks — the namenode's repair loop. Every outage episode (first
    /// moment the cluster has under-replicated or lost blocks, until it is
    /// back to full replication) contributes one MTTR sample to the
    /// [`METRIC_MTTR`] histogram and to the report.
    pub fn run_fault_plan(
        &mut self,
        plan: &FaultPlan,
        repair_interval: SimDuration,
        horizon: SimDuration,
    ) -> RepairReport {
        let end = self.clock.now() + horizon;
        let mut idx = 0;
        let mut degraded_since: Option<SimTime> = None;
        let mut mttrs: Vec<f64> = Vec::new();
        let mut faults_applied = 0;
        let mut replicas_repaired = 0;
        let mut corrupt_dropped = 0;
        while self.clock.now() < end {
            let now = self.tick(repair_interval);
            let events = plan.events();
            let mut first_applied_at = None;
            while idx < events.len() && events[idx].at <= now {
                if self.apply_fault(&events[idx]) {
                    faults_applied += 1;
                    first_applied_at.get_or_insert(events[idx].at);
                }
                idx += 1;
            }
            if degraded_since.is_none() {
                let s = self.stats();
                if s.under_replicated > 0 || s.lost > 0 {
                    // The outage began when the fault landed, not when this
                    // tick noticed it — MTTR includes the detection delay.
                    degraded_since = Some(first_applied_at.unwrap_or(now));
                }
            }
            corrupt_dropped += self.scrub();
            replicas_repaired += self.re_replicate();
            if let Some(since) = degraded_since {
                let s = self.stats();
                if s.under_replicated == 0 && s.lost == 0 {
                    let mttr = now.saturating_since(since).as_secs_f64();
                    self.telemetry.observe_exact(
                        METRIC_MTTR,
                        "seconds from first under-replication to full replication",
                        mttr,
                    );
                    self.telemetry.event(
                        "scdfs",
                        "repair/recovered",
                        now,
                        &format!("full replication restored after {mttr:.3} s"),
                    );
                    mttrs.push(mttr);
                    degraded_since = None;
                }
            }
        }
        let repairs = mttrs.len();
        let mttr_mean_s = if repairs > 0 {
            mttrs.iter().sum::<f64>() / repairs as f64
        } else {
            0.0
        };
        let mttr_max_s = mttrs.iter().cloned().fold(0.0, f64::max);
        RepairReport {
            faults_applied,
            replicas_repaired,
            corrupt_replicas_dropped: corrupt_dropped,
            repairs,
            mttr_mean_s,
            mttr_max_s,
            unrepaired_at_end: degraded_since.is_some(),
            final_stats: self.stats(),
        }
    }

    /// Computes aggregate statistics (the namenode web-UI numbers).
    pub fn stats(&self) -> ClusterStats {
        let mut under = 0;
        let mut lost = 0;
        let mut blocks = 0;
        for (_, locs) in self.namenode.all_blocks() {
            blocks += 1;
            let alive = locs
                .iter()
                .filter(|n| self.datanodes[n.0 as usize].is_alive())
                .count();
            if alive == 0 {
                lost += 1;
            } else if alive < self.replication {
                under += 1;
            }
        }
        ClusterStats {
            nodes: self.datanodes.len(),
            alive_nodes: self.alive_ids().len(),
            files: self.namenode.file_count(),
            blocks,
            under_replicated: under,
            lost,
            used_bytes: self
                .datanodes
                .iter()
                .filter(|d| d.is_alive())
                .map(DataNode::used_bytes)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn create_read_roundtrip() {
        let mut dfs = DfsCluster::new(4, 2, 1024, 1).unwrap();
        let data = payload(5000, 3);
        dfs.create("/f", &data).unwrap();
        assert_eq!(dfs.read("/f").unwrap(), data);
    }

    #[test]
    fn empty_file() {
        let mut dfs = DfsCluster::new(3, 2, 1024, 2).unwrap();
        dfs.create("/empty", &[]).unwrap();
        assert_eq!(dfs.read("/empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn block_splitting_counts() {
        let mut dfs = DfsCluster::new(4, 2, 100, 3).unwrap();
        dfs.create("/f", &payload(250, 0)).unwrap();
        assert_eq!(dfs.namenode().file("/f").unwrap().blocks.len(), 3);
    }

    #[test]
    fn replication_places_on_distinct_nodes() {
        let mut dfs = DfsCluster::new(5, 3, 1024, 4).unwrap();
        dfs.create("/f", &payload(10, 0)).unwrap();
        let b = dfs.namenode().file("/f").unwrap().blocks[0];
        let locs = dfs.namenode().locations(b);
        assert_eq!(locs.len(), 3);
        let mut uniq = locs.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn survives_replication_minus_one_failures() {
        let mut dfs = DfsCluster::new(6, 3, 512, 5).unwrap();
        let data = payload(3000, 7);
        dfs.create("/f", &data).unwrap();
        dfs.kill_node(0).unwrap();
        dfs.kill_node(1).unwrap();
        assert_eq!(
            dfs.read("/f").unwrap(),
            data,
            "3-way replication survives 2 failures"
        );
    }

    #[test]
    fn data_lost_when_all_replicas_die() {
        let mut dfs = DfsCluster::new(2, 2, 512, 6).unwrap();
        dfs.create("/f", &payload(100, 1)).unwrap();
        dfs.kill_node(0).unwrap();
        dfs.kill_node(1).unwrap();
        assert!(matches!(dfs.read("/f"), Err(DfsError::BlockUnavailable(_))));
    }

    #[test]
    fn restore_brings_data_back() {
        let mut dfs = DfsCluster::new(2, 2, 512, 7).unwrap();
        let data = payload(100, 2);
        dfs.create("/f", &data).unwrap();
        dfs.kill_node(0).unwrap();
        dfs.kill_node(1).unwrap();
        dfs.restore_node(0).unwrap();
        assert_eq!(dfs.read("/f").unwrap(), data);
    }

    #[test]
    fn re_replication_restores_factor() {
        let mut dfs = DfsCluster::new(6, 3, 512, 8).unwrap();
        dfs.create("/f", &payload(2000, 3)).unwrap();
        dfs.kill_node(0).unwrap();
        let before = dfs.stats();
        let created = dfs.re_replicate();
        let after = dfs.stats();
        assert_eq!(
            after.under_replicated, 0,
            "created {created}, before {before:?}"
        );
        // After re-replication, killing two *more* nodes still cannot lose data.
        dfs.kill_node(1).unwrap();
        dfs.kill_node(2).unwrap();
        assert!(dfs.read("/f").is_ok());
    }

    #[test]
    fn corrupt_replica_is_skipped() {
        let mut dfs = DfsCluster::new(3, 2, 512, 9).unwrap();
        let data = payload(100, 4);
        dfs.create("/f", &data).unwrap();
        let b = dfs.namenode().file("/f").unwrap().blocks[0];
        let first = dfs.namenode().locations(b)[0];
        dfs.datanodes[first.0 as usize].corrupt_block(b);
        assert_eq!(
            dfs.read("/f").unwrap(),
            data,
            "falls through to the healthy replica"
        );
    }

    #[test]
    fn delete_reclaims_space() {
        let mut dfs = DfsCluster::new(3, 2, 512, 10).unwrap();
        dfs.create("/f", &payload(1000, 5)).unwrap();
        assert!(dfs.stats().used_bytes > 0);
        dfs.delete("/f").unwrap();
        let s = dfs.stats();
        assert_eq!(s.used_bytes, 0);
        assert_eq!(s.files, 0);
        assert_eq!(s.blocks, 0);
        assert!(matches!(dfs.read("/f"), Err(DfsError::FileNotFound(_))));
    }

    #[test]
    fn append_extends_file() {
        let mut dfs = DfsCluster::new(3, 2, 100, 11).unwrap();
        let a = payload(150, 6);
        let b = payload(80, 7);
        dfs.create("/f", &a).unwrap();
        dfs.append("/f", &b).unwrap();
        let mut expect = a;
        expect.extend_from_slice(&b);
        assert_eq!(dfs.read("/f").unwrap(), expect);
    }

    #[test]
    fn write_fails_without_enough_alive_nodes() {
        let mut dfs = DfsCluster::new(3, 3, 512, 12).unwrap();
        dfs.kill_node(0).unwrap();
        assert!(matches!(
            dfs.create("/f", &payload(10, 0)),
            Err(DfsError::NotEnoughNodes {
                alive: 2,
                needed: 3
            })
        ));
    }

    #[test]
    fn bad_config_rejected() {
        assert!(DfsCluster::new(0, 1, 512, 0).is_err());
        assert!(DfsCluster::new(2, 3, 512, 0).is_err());
        assert!(DfsCluster::new(2, 2, 0, 0).is_err());
    }

    #[test]
    fn placement_balances_load() {
        let mut dfs = DfsCluster::new(4, 1, 100, 13).unwrap();
        for i in 0..40 {
            dfs.create(&format!("/f{i}"), &payload(100, i as u8))
                .unwrap();
        }
        let counts: Vec<usize> = dfs.datanodes.iter().map(DataNode::block_count).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "least-loaded placement keeps balance, got {counts:?}"
        );
    }

    #[test]
    fn telemetry_counts_io_and_replication() {
        let t = sctelemetry::Telemetry::shared();
        let mut dfs = DfsCluster::new(6, 3, 512, 8)
            .unwrap()
            .with_telemetry(t.handle());
        dfs.create("/f", &payload(2000, 3)).unwrap(); // 4 blocks
        dfs.read("/f").unwrap();
        dfs.kill_node(0).unwrap();
        let created = dfs.re_replicate();

        let reg = t.registry();
        let counter = |n: &str| reg.get(n).unwrap().as_counter().unwrap().get();
        assert_eq!(counter(METRIC_BLOCK_WRITES), 4);
        assert_eq!(counter(METRIC_WRITE_BYTES), 2000 * 3);
        assert!(counter(METRIC_BLOCK_READS) >= 4);
        assert_eq!(counter(METRIC_REPLICATIONS), created as u64);
        assert!(t.trace_len() >= 2, "kill + re_replicate events recorded");
    }

    #[test]
    fn scrub_drops_corrupt_replicas_and_repair_heals() {
        let t = sctelemetry::Telemetry::shared();
        let mut dfs = DfsCluster::new(4, 2, 512, 21)
            .unwrap()
            .with_telemetry(t.handle());
        let data = payload(400, 9);
        dfs.create("/f", &data).unwrap();
        let b = dfs.namenode().file("/f").unwrap().blocks[0];
        let first = dfs.namenode().locations(b)[0];
        dfs.datanodes[first.0 as usize].corrupt_block(b);
        assert_eq!(dfs.scrub(), 1);
        assert_eq!(dfs.stats().under_replicated, 1, "corrupt replica dropped");
        assert_eq!(dfs.re_replicate(), 1);
        assert_eq!(dfs.stats().under_replicated, 0);
        assert_eq!(dfs.read("/f").unwrap(), data);
        let reg = t.registry();
        assert_eq!(
            reg.get(METRIC_SCRUBBED)
                .unwrap()
                .as_counter()
                .unwrap()
                .get(),
            1
        );
    }

    #[test]
    fn apply_fault_maps_kinds_onto_cluster_ops() {
        let mut dfs = DfsCluster::new(3, 2, 512, 22).unwrap();
        dfs.create("/f", &payload(100, 1)).unwrap();
        let b = dfs.namenode().file("/f").unwrap().blocks[0];
        let holder = dfs.namenode().locations(b)[0];
        use simclock::SimTime;
        let at = SimTime::from_secs(1);
        assert!(dfs.apply_fault(&FaultEvent {
            at,
            kind: FaultKind::NodeCrash { node: 0 }
        }));
        assert!(!dfs.datanode(NodeId(0)).unwrap().is_alive());
        assert!(dfs.apply_fault(&FaultEvent {
            at,
            kind: FaultKind::NodeRestart { node: 0 }
        }));
        assert!(dfs.datanode(NodeId(0)).unwrap().is_alive());
        assert!(dfs.apply_fault(&FaultEvent {
            at,
            kind: FaultKind::BlockCorrupt {
                node: holder.0,
                block: b.0
            }
        }));
        assert_eq!(dfs.scrub(), 1);
        // Out-of-range node and non-DFS kinds are ignored.
        assert!(!dfs.apply_fault(&FaultEvent {
            at,
            kind: FaultKind::NodeCrash { node: 99 }
        }));
        assert!(!dfs.apply_fault(&FaultEvent {
            at,
            kind: FaultKind::MessageDrop { seq: 0 }
        }));
    }

    #[test]
    fn fault_plan_run_measures_mttr() {
        let t = sctelemetry::Telemetry::shared();
        let mut dfs = DfsCluster::new(6, 3, 512, 23)
            .unwrap()
            .with_telemetry(t.handle());
        dfs.create("/f", &payload(4000, 2)).unwrap();
        use simclock::SimTime;
        let plan = FaultPlan::empty()
            .with_event(SimTime::from_secs(5), FaultKind::NodeCrash { node: 0 })
            .with_event(SimTime::from_secs(7), FaultKind::NodeCrash { node: 1 });
        let report =
            dfs.run_fault_plan(&plan, SimDuration::from_secs(1), SimDuration::from_secs(30));
        assert_eq!(report.faults_applied, 2);
        assert!(report.replicas_repaired > 0);
        assert_eq!(report.repairs, 2, "each crash healed within one tick");
        assert!(report.mttr_mean_s > 0.0 || report.mttr_max_s == 0.0);
        assert!(!report.unrepaired_at_end);
        assert_eq!(report.final_stats.under_replicated, 0);
        assert_eq!(report.final_stats.lost, 0);
        let reg = t.registry();
        let entry = reg.get(METRIC_MTTR).unwrap();
        assert_eq!(entry.as_histogram().unwrap().snapshot().count, 2);
    }

    #[test]
    fn fault_plan_run_is_deterministic() {
        let run = || {
            let mut dfs = DfsCluster::new(8, 3, 256, 24).unwrap();
            dfs.create("/f", &payload(3000, 5)).unwrap();
            let plan = FaultPlan::generate(
                &scfault::FaultSpec {
                    crashes: 3.0,
                    corruptions: 2.0,
                    blocks: 12,
                    ..scfault::FaultSpec::new(SimDuration::from_secs(60), 8)
                },
                77,
            );
            let report =
                dfs.run_fault_plan(&plan, SimDuration::from_secs(1), SimDuration::from_secs(90));
            format!("{report:?}")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tick_heartbeats_alive_only() {
        let mut dfs = DfsCluster::new(3, 2, 512, 14).unwrap();
        dfs.kill_node(2).unwrap();
        let now = dfs.tick(simclock::SimDuration::from_secs(3));
        assert_eq!(dfs.datanode(NodeId(0)).unwrap().last_heartbeat(), now);
        assert_eq!(
            dfs.datanode(NodeId(2)).unwrap().last_heartbeat(),
            SimTime::ZERO
        );
    }
}
