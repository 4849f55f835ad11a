//! # scnosql — NoSQL storage substrates
//!
//! The paper's software layer (§II-C2) uses two NoSQL systems side by side:
//!
//! - **HBase**, "a distributed NoSQL database system running on top of HDFS
//!   ... a wide-column store or two-dimensional key/value store. Unlike HDFS
//!   that is optimized only for batch-style data access, HBase supports
//!   efficient random read/write operations." → [`wide_column::Table`], an
//!   LSM-tree store with a memtable, write-ahead log, sorted runs, and
//!   compaction.
//! - **MongoDB**, "a document-based NoSQL database system optimized for
//!   storing unstructured or semi-structured documents such as JSON data ...
//!   equipped with various indexing techniques". → [`document::Collection`],
//!   a BSON-ish document store with covering ordered secondary indexes
//!   (equality and ranges) and a small query engine.
//!
//! Experiment E9 benchmarks the random-vs-batch access contrast the paper
//! draws between HBase and HDFS.
//!
//! Mutating and querying APIs return `Result<_, `[`NosqlError`]`>`: invalid
//! requests (inverted ranges, non-finite numbers, empty row keys) are
//! rejected as values instead of panicking inside the engine.
//!
//! # Examples
//!
//! ```
//! use scnosql::wide_column::Table;
//!
//! let mut t = Table::new("incidents", 1024);
//! t.put("row-1", "info", "type", b"robbery".to_vec()).unwrap();
//! assert_eq!(t.get("row-1", "info", "type").as_deref(), Some(&b"robbery"[..]));
//! ```

#![warn(clippy::too_many_lines)]

pub mod document;
mod error;
pub mod wide_column;

pub use error::NosqlError;
