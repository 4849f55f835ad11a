//! Datanodes: block storage workers with heartbeats.

use std::collections::HashMap;

use bytes::Bytes;
use simclock::SimTime;

use crate::block::{Block, BlockId};
use crate::error::DfsError;

/// Identifier of a datanode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dn-{:03}", self.0)
    }
}

/// A simulated datanode storing replicas of blocks.
#[derive(Debug, Clone)]
pub struct DataNode {
    id: NodeId,
    blocks: HashMap<BlockId, Block>,
    alive: bool,
    last_heartbeat: SimTime,
}

impl DataNode {
    /// Creates an empty, alive node.
    pub fn new(id: NodeId) -> Self {
        DataNode {
            id,
            blocks: HashMap::new(),
            alive: true,
            last_heartbeat: SimTime::ZERO,
        }
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is currently serving requests.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Total payload bytes stored here.
    pub fn used_bytes(&self) -> usize {
        self.blocks.values().map(Block::len).sum()
    }

    /// Most recent heartbeat time.
    pub fn last_heartbeat(&self) -> SimTime {
        self.last_heartbeat
    }

    /// Records a heartbeat at `now`.
    pub fn heartbeat(&mut self, now: SimTime) {
        self.last_heartbeat = now;
    }

    /// Stores a replica. Overwrites silently (idempotent re-replication).
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] if the node is dead (a dead node
    /// cannot accept writes).
    pub fn store(&mut self, block: Block) -> Result<(), DfsError> {
        if !self.alive {
            return Err(DfsError::UnknownNode(self.id));
        }
        self.blocks.insert(block.id, block);
        Ok(())
    }

    /// Reads a replica, verifying its checksum.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockUnavailable`] if absent or the node is dead;
    /// [`DfsError::CorruptBlock`] if the checksum fails.
    pub fn read(&self, id: BlockId) -> Result<Bytes, DfsError> {
        if !self.alive {
            return Err(DfsError::BlockUnavailable(id));
        }
        let block = self.blocks.get(&id).ok_or(DfsError::BlockUnavailable(id))?;
        if !block.verify() {
            return Err(DfsError::CorruptBlock(id, self.id));
        }
        Ok(block.data.clone())
    }

    /// Removes a replica if present.
    pub fn remove(&mut self, id: BlockId) {
        self.blocks.remove(&id);
    }

    /// Ids of all stored replicas (the node's block report).
    pub fn block_report(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.blocks.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Marks the node dead (crash). Blocks remain on "disk".
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// Brings the node back; its blocks re-register via the block report.
    pub fn restore(&mut self) {
        self.alive = true;
    }

    /// Flips one byte of a stored replica — failure injection for checksum
    /// tests. Returns `true` if the block existed.
    pub fn corrupt_block(&mut self, id: BlockId) -> bool {
        if let Some(block) = self.blocks.get_mut(&id) {
            if block.data.is_empty() {
                return false;
            }
            let mut data = block.data.to_vec();
            data[0] ^= 0xFF;
            block.data = Bytes::from(data);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(id: u64, payload: &'static [u8]) -> Block {
        Block::new(BlockId(id), Bytes::from_static(payload))
    }

    #[test]
    fn store_and_read() {
        let mut dn = DataNode::new(NodeId(0));
        dn.store(blk(1, b"abc")).unwrap();
        assert_eq!(dn.read(BlockId(1)).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(dn.block_report(), [BlockId(1)]);
        assert_eq!(dn.used_bytes(), 3);
    }

    #[test]
    fn read_missing_block() {
        let dn = DataNode::new(NodeId(0));
        assert_eq!(
            dn.read(BlockId(9)),
            Err(DfsError::BlockUnavailable(BlockId(9)))
        );
    }

    #[test]
    fn dead_node_rejects_io() {
        let mut dn = DataNode::new(NodeId(1));
        dn.store(blk(1, b"abc")).unwrap();
        dn.kill();
        assert!(dn.read(BlockId(1)).is_err());
        assert!(dn.store(blk(2, b"x")).is_err());
        dn.restore();
        assert!(dn.read(BlockId(1)).is_ok(), "blocks survive a restart");
    }

    #[test]
    fn corruption_is_detected() {
        let mut dn = DataNode::new(NodeId(2));
        dn.store(blk(5, b"payload")).unwrap();
        assert!(dn.corrupt_block(BlockId(5)));
        assert_eq!(
            dn.read(BlockId(5)),
            Err(DfsError::CorruptBlock(BlockId(5), NodeId(2)))
        );
    }

    #[test]
    fn block_report_sorted() {
        let mut dn = DataNode::new(NodeId(3));
        dn.store(blk(3, b"c")).unwrap();
        dn.store(blk(1, b"a")).unwrap();
        dn.store(blk(2, b"b")).unwrap();
        assert_eq!(dn.block_report(), vec![BlockId(1), BlockId(2), BlockId(3)]);
    }

    #[test]
    fn heartbeat_updates() {
        let mut dn = DataNode::new(NodeId(4));
        dn.heartbeat(SimTime::from_secs(3));
        assert_eq!(dn.last_heartbeat(), SimTime::from_secs(3));
    }
}
