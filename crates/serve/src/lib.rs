//! scserve — the sharded, cached, batched serving tier.
//!
//! The paper's cyberinfrastructure ends at people: dashboards, alerts,
//! and inference answers served to many concurrent consumers. This crate
//! is that last hop. It composes four mechanisms, each independently
//! testable and all deterministic in sim-time:
//!
//! | item | mechanism |
//! |---|---|
//! | [`ShardMap`] | consistent-hash key→shard routing with virtual nodes |
//! | [`QueryCache`], [`InferenceCache`] | sampled-LRU + TTL caches for query results and inference outputs, invalidated on write |
//! | [`MicroBatcher`] | micro-batching of inference requests with identical-row coalescing |
//! | [`TokenBucket`], [`ServiceQueue`] | token-bucket rate limiting and a bounded queue that sheds — not queues — overload |
//! | [`Server`] | the front end tying them together, with stale-serve degradation under injected faults |
//! | [`WorkloadGen`] | seed-deterministic open-loop load generation (experiments E17 and E18) |
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

mod admission;
mod batch;
mod cache;
mod server;
mod shard;
mod workload;

pub use admission::{Admission, ServiceQueue, TokenBucket};
pub use batch::{row_fingerprint, BatchConfig, FlushedBatch, MicroBatcher, ReqId};
pub use cache::{CacheConfig, InferenceCache, LruTtlCache, QueryCache};
pub use server::{
    InferCompletion, InferSubmit, Outcome, Rows, ServeConfig, ServeStats, Served, Server,
    ServingKey, CACHE_HIT_COST,
};
pub use shard::{hash_bytes, ShardMap};
pub use workload::{
    feature_rows, key, rank, reading, Keyspace, ServingReport, WorkloadConfig, WorkloadGen, KINDS,
};
