//! scserve — the sharded, cached, batched serving tier.
//!
//! The paper's cyberinfrastructure ends at people: dashboards, alerts,
//! and inference answers served to many concurrent consumers. This crate
//! is that last hop. It composes four mechanisms, each independently
//! testable and all deterministic in sim-time:
//!
//! | module | mechanism |
//! |---|---|
//! | [`shard`] | consistent-hash key→shard routing with virtual nodes |
//! | [`cache`] | sampled-LRU + TTL caches for query results and inference outputs, invalidated on write |
//! | [`batch`] | micro-batching of inference requests with identical-row coalescing |
//! | [`admission`] | token-bucket rate limiting and a bounded queue that sheds — not queues — overload |
//! | [`server`] | the [`Server`] front end tying them together, with stale-serve degradation under injected faults |
//! | [`workload`] | seed-deterministic open/closed-loop load generation ([`WorkloadGen`], experiment E17) |
//!
//! The correctness story is the test suite's: a served answer is proven
//! *bit-identical* to the unsharded, uncached, unbatched computation
//! (`tests/serving_equivalence.rs`), and the routing/caching invariants
//! are property-tested (`crates/serve/tests/proptest_serve.rs`).
//!
//! # Example
//!
//! ```
//! use scserve::{Outcome, ServeConfig, Server};
//! use scnosql::document::{Doc, Filter};
//! use simclock::SimTime;
//!
//! let mut server = Server::new(ServeConfig::default());
//! server
//!     .put("sensor-17", Doc::object([("kind", Doc::Str("air".into()))]), SimTime::ZERO)
//!     .unwrap();
//! let q = Filter::Eq("kind".into(), Doc::Str("air".into()));
//! let cold = server.query(&q, SimTime::from_millis(1)).unwrap();
//! let warm = server.query(&q, SimTime::from_millis(2)).unwrap();
//! assert!(matches!(cold.outcome, Outcome::Fresh(_)));
//! assert!(matches!(warm.outcome, Outcome::Cached(_)));
//! assert_eq!(cold.outcome.value(), warm.outcome.value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod admission;
pub mod batch;
pub mod cache;
pub mod server;
pub mod shard;
pub mod workload;

pub use admission::{Admission, ServiceQueue, TokenBucket};
pub use batch::{row_fingerprint, BatchConfig, FlushedBatch, MicroBatcher, ReqId};
pub use cache::{CacheConfig, CacheStats, InferenceCache, LruTtlCache, QueryCache, QueryKey};
pub use server::{
    InferCompletion, InferSubmit, Outcome, Rows, ServeConfig, ServeStats, Served, Server,
    CACHE_HIT_COST,
};
pub use shard::{hash_bytes, ShardMap};
pub use workload::{ArrivalMode, ServingReport, WorkloadConfig, WorkloadGen};
