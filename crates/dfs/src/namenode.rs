//! The namenode: namespace tree and block→replica map.

use std::collections::BTreeMap;

use crate::block::BlockId;
use crate::datanode::NodeId;
use crate::error::DfsError;

/// Metadata for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Ordered blocks making up the file.
    pub blocks: Vec<BlockId>,
    /// Logical file length in bytes.
    pub len: usize,
}

/// The metadata server: file namespace plus the replica location map.
///
/// Deliberately unconcerned with data — data lives on
/// [`crate::DataNode`]s; the namenode only knows *where* replicas are,
/// exactly like HDFS.
#[derive(Debug, Clone, Default)]
pub struct NameNode {
    namespace: BTreeMap<String, FileMeta>,
    // BTreeMap, not HashMap: the re-replication scan iterates this map, and
    // repair placement must not depend on per-process hash order.
    locations: BTreeMap<BlockId, Vec<NodeId>>,
    next_block: u64,
}

impl NameNode {
    /// Creates an empty namenode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh block id.
    pub fn allocate_block(&mut self) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        id
    }

    /// Registers a file with its block list.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileExists`] if the path is taken.
    pub fn create_file(&mut self, path: &str, meta: FileMeta) -> Result<(), DfsError> {
        if self.namespace.contains_key(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        self.namespace.insert(path.to_string(), meta);
        Ok(())
    }

    /// Looks up file metadata.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if absent.
    pub fn file(&self, path: &str) -> Result<&FileMeta, DfsError> {
        self.namespace
            .get(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.namespace.contains_key(path)
    }

    /// Removes a file, returning its metadata for block reclamation.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if absent.
    pub fn remove_file(&mut self, path: &str) -> Result<FileMeta, DfsError> {
        let meta = self
            .namespace
            .remove(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        for b in &meta.blocks {
            self.locations.remove(b);
        }
        Ok(meta)
    }

    /// Appends extra blocks to an existing file.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if absent.
    pub fn append_blocks(
        &mut self,
        path: &str,
        blocks: &[BlockId],
        extra_len: usize,
    ) -> Result<(), DfsError> {
        let meta = self
            .namespace
            .get_mut(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        meta.blocks.extend_from_slice(blocks);
        meta.len += extra_len;
        Ok(())
    }

    /// Records that `node` holds a replica of `block`.
    pub fn add_location(&mut self, block: BlockId, node: NodeId) {
        let locs = self.locations.entry(block).or_default();
        if !locs.contains(&node) {
            locs.push(node);
        }
    }

    /// Forgets a replica location (node decommissioned or replica dropped).
    pub fn remove_location(&mut self, block: BlockId, node: NodeId) {
        if let Some(locs) = self.locations.get_mut(&block) {
            locs.retain(|&n| n != node);
        }
    }

    /// Replica locations recorded for `block` (may include dead nodes; the
    /// cluster filters by liveness).
    pub fn locations(&self, block: BlockId) -> &[NodeId] {
        self.locations.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(block, locations)` entries — used by the re-replication scan.
    pub fn all_blocks(&self) -> impl Iterator<Item = (BlockId, &[NodeId])> {
        self.locations.iter().map(|(&b, locs)| (b, locs.as_slice()))
    }

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.namespace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut nn = NameNode::new();
        let b = nn.allocate_block();
        nn.create_file(
            "/a",
            FileMeta {
                blocks: vec![b],
                len: 10,
            },
        )
        .unwrap();
        assert_eq!(nn.file("/a").unwrap().len, 10);
        assert!(nn.exists("/a"));
        assert!(!nn.exists("/b"));
    }

    #[test]
    fn duplicate_create_fails() {
        let mut nn = NameNode::new();
        nn.create_file(
            "/a",
            FileMeta {
                blocks: vec![],
                len: 0,
            },
        )
        .unwrap();
        assert_eq!(
            nn.create_file(
                "/a",
                FileMeta {
                    blocks: vec![],
                    len: 0
                }
            ),
            Err(DfsError::FileExists("/a".into()))
        );
    }

    #[test]
    fn allocate_block_monotonic() {
        let mut nn = NameNode::new();
        let a = nn.allocate_block();
        let b = nn.allocate_block();
        assert!(b > a);
    }

    #[test]
    fn remove_clears_locations() {
        let mut nn = NameNode::new();
        let b = nn.allocate_block();
        nn.create_file(
            "/f",
            FileMeta {
                blocks: vec![b],
                len: 1,
            },
        )
        .unwrap();
        nn.add_location(b, NodeId(0));
        nn.remove_file("/f").unwrap();
        assert!(nn.locations(b).is_empty());
        assert!(!nn.exists("/f"));
    }

    #[test]
    fn location_bookkeeping_dedupes() {
        let mut nn = NameNode::new();
        let b = nn.allocate_block();
        nn.add_location(b, NodeId(1));
        nn.add_location(b, NodeId(1));
        nn.add_location(b, NodeId(2));
        assert_eq!(nn.locations(b), &[NodeId(1), NodeId(2)]);
        nn.remove_location(b, NodeId(1));
        assert_eq!(nn.locations(b), &[NodeId(2)]);
    }

    #[test]
    fn append_blocks_extends() {
        let mut nn = NameNode::new();
        let b0 = nn.allocate_block();
        nn.create_file(
            "/f",
            FileMeta {
                blocks: vec![b0],
                len: 4,
            },
        )
        .unwrap();
        let b1 = nn.allocate_block();
        nn.append_blocks("/f", &[b1], 6).unwrap();
        let meta = nn.file("/f").unwrap();
        assert_eq!(meta.blocks, vec![b0, b1]);
        assert_eq!(meta.len, 10);
    }
}
