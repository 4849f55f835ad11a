//! # scdfs — HDFS-like distributed file system simulation
//!
//! The paper's software layer stores large-scale datasets in HDFS, relying on
//! its replication: *"HDFS provides reliability and availability by
//! replicating data blocks across multiple machines so, even though some
//! machines may fail, we can still access the data stored in HDFS"*
//! (§II-C2). This crate reproduces that behaviour as a deterministic
//! in-memory simulation:
//!
//! - a [`NameNode`] holding the namespace and block→replica map,
//! - [`DataNode`]s storing checksummed blocks,
//! - a [`DfsCluster`] client API (create/read/append/delete) with pipelined
//!   replica placement, failure injection, and a re-replication scan,
//! - [`import`]: bulk import from legacy relational systems (the Sqoop
//!   analogue the paper lists alongside HDFS).
//!
//! Batch-oriented whole-block access is intentional — the contrast with the
//! wide-column store's random access is measured in experiment E9.
//!
//! # Examples
//!
//! ```
//! use scdfs::DfsCluster;
//!
//! let mut dfs = DfsCluster::new(5, 3, 64 * 1024, 7)?;
//! dfs.create("/videos/cam-0001/feed.bin", &vec![0xAB; 200_000])?;
//! let data = dfs.read("/videos/cam-0001/feed.bin")?;
//! assert_eq!(data.len(), 200_000);
//!
//! // Two node failures cannot lose 3-way replicated data.
//! dfs.kill_node(0)?;
//! dfs.kill_node(1)?;
//! assert!(dfs.read("/videos/cam-0001/feed.bin").is_ok());
//! # Ok::<(), scdfs::DfsError>(())
//! ```

mod block;
mod cluster;
mod datanode;
mod error;
pub mod import;
mod namenode;

pub use block::{Block, BlockId};
pub use cluster::{ClusterStats, DfsCluster, RepairReport, METRIC_MTTR};
pub use datanode::{DataNode, NodeId};
pub use error::DfsError;
pub use namenode::{FileMeta, NameNode};
