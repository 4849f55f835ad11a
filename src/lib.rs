//! # smartcity — distributed cyberinfrastructure for smart cities
//!
//! Facade crate re-exporting every subsystem of the reproduction of
//! *"Towards Distributed Cyberinfrastructure for Smart Cities using Big Data
//! and Deep Learning Technologies"* (ICDCS 2018).
//!
//! The paper's four-layer architecture maps onto these crates:
//!
//! - **Data layer** — [`data`] (synthetic videos, tweets, Waze, city & crime
//!   records), [`geo`] (camera registry, spatial index).
//! - **Hardware layer** — [`fog`] (four-tier edge/fog/server/cloud
//!   discrete-event simulator), [`simclock`].
//! - **Software layer** — [`dfs`] (HDFS-like), [`nosql`] (HBase-like
//!   wide-column + MongoDB-like document store), [`stream`] (Flume/Kafka-like
//!   ingestion), [`compute`] (YARN-like scheduler + Spark-like dataflow +
//!   MLlib-lite), [`neural`] (TensorFlow-substitute DL framework),
//!   [`drl`] (deep reinforcement learning).
//! - **Application layer** — [`core`] (vehicle detection, action recognition,
//!   social-network narrowing, visualization export), [`social`].
//! - **Observability** — [`telemetry`] (metrics registry, sim-time-aware
//!   tracing, JSON / Prometheus exporters used by every layer above),
//!   [`observe`] (causal span trees, critical-path extraction with
//!   p50/p99/max exemplars, Chrome-trace / flamegraph exporters, and a
//!   deterministic multi-window burn-rate SLO alerting engine),
//!   [`tsdb`] (deterministic in-memory time-series store: Gorilla-style
//!   delta-of-delta + XOR compression, PromQL-flavoured queries and
//!   recording rules, registry scraping on a sim-time cadence, and the
//!   E19 flight-recorder artifact).
//! - **Runtime** — [`par`] (deterministic worker pool: any thread count
//!   produces byte-identical results; set via `SCPAR_THREADS`),
//!   [`fault`] (seed-driven fault injection plus retry /
//!   circuit-breaker policies wired into the fog, DFS, and stream layers).
//! - **Serving** — [`serve`] (consistent-hash sharding, LRU+TTL query and
//!   inference caches, micro-batched inference, admission control with
//!   load shedding; the tier between the stack and its many consumers).
//!
//! # Quickstart
//!
//! ```
//! use smartcity::core::infrastructure::Cyberinfrastructure;
//!
//! let infra = Cyberinfrastructure::new(7);
//! let report = infra.health_report();
//! assert!(report.layers >= 4);
//! ```

pub use sccompute as compute;
pub use scdata as data;
pub use scdfs as dfs;
pub use scdrl as drl;
pub use scfault as fault;
pub use scfog as fog;
pub use scgeo as geo;
pub use scmetro as metro;
pub use scneural as neural;
pub use scnosql as nosql;
pub use scobserve as observe;
pub use scpar as par;
pub use scprof as prof;
pub use scserve as serve;
pub use scsimd as simd;
pub use scsocial as social;
pub use scstream as stream;
pub use sctelemetry as telemetry;
pub use sctsdb as tsdb;
pub use simclock;
pub use smartcity_core as core;
