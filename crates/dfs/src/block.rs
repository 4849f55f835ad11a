//! Blocks and checksums.

use bytes::Bytes;

/// Identifier of a data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk_{:012}", self.0)
    }
}

/// A stored block: immutable payload plus its checksum, verified on read
/// (HDFS stores per-block CRCs the same way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Block identifier.
    pub id: BlockId,
    /// Immutable payload.
    pub data: Bytes,
    /// FNV-1a checksum of `data`, computed at write time.
    pub checksum: u64,
}

impl Block {
    /// Creates a block, computing its checksum.
    pub fn new(id: BlockId, data: Bytes) -> Self {
        let checksum = checksum(&data);
        Block { id, data, checksum }
    }

    /// Whether the stored data still matches the stored checksum.
    pub fn verify(&self) -> bool {
        checksum(&self.data) == self.checksum
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// FNV-1a 64-bit hash used as the block checksum.
fn checksum(data: &[u8]) -> u64 {
    simclock::hash::fnv1a(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_deterministic_and_sensitive() {
        assert_eq!(checksum(b"hello"), checksum(b"hello"));
        assert_ne!(checksum(b"hello"), checksum(b"hellp"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        // Pinned: a changed checksum would fail every stored block.
        assert_eq!(checksum(b"metropolis\n"), 0x4b01_90ec_0d27_8225);
    }

    #[test]
    fn block_verifies_clean_data() {
        let b = Block::new(BlockId(1), Bytes::from_static(b"payload"));
        assert!(b.verify());
        assert_eq!(b.len(), 7);
    }

    #[test]
    fn block_detects_corruption() {
        let mut b = Block::new(BlockId(2), Bytes::from_static(b"payload"));
        b.data = Bytes::from_static(b"paYload");
        assert!(!b.verify());
    }

    #[test]
    fn display_format() {
        assert_eq!(BlockId(42).to_string(), "blk_000000000042");
    }
}
