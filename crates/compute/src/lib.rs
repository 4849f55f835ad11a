//! # sccompute — distributed computation substrates
//!
//! The paper's software layer runs "Apache Hadoop YARN and Apache Spark as
//! the resource scheduler and distributed data processing engine
//! respectively", with "various distributed data mining tools including
//! Apache Spark MLlib" (§II-C). This crate rebuilds all three:
//!
//! - [`yarn`]: a cluster resource scheduler — node managers with
//!   memory/vcore capacities, applications requesting containers, and three
//!   scheduling policies (FIFO, capacity queues, fair).
//! - [`dataflow`]: a partitioned dataset engine — the narrow `map` runs
//!   partition-parallel on threads; the wide `reduce_by_key` hash-shuffles
//!   across partitions, with shuffle volume accounted.
//! - [`graph`]: Pregel-style vertex-centric graph processing (the GraphX
//!   analogue the paper cites) and shortest paths on it.
//! - [`mllib`]: data mining on top of the dataflow engine — k-means(++)
//!   (§II-C3's hot-spot mining), linear regression and standard scaling.
//!
//! # Examples
//!
//! ```
//! use sccompute::dataflow::Dataset;
//!
//! let ds = Dataset::from_vec((1..=100).collect::<Vec<i64>>(), 4);
//! let total: i64 = ds.map(|x| x * 2).reduce(0, |a, b| a + b);
//! assert_eq!(total, 10_100);
//! ```

pub mod dataflow;
pub mod graph;
pub mod mllib;
pub mod yarn;
