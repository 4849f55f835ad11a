//! # scstream — real-time data ingestion
//!
//! The paper's software layer uses Apache Flume "for real-time data transfers
//! from various information sources" (§II-C2), feeding video annotations,
//! tweets, and Waze reports into NoSQL stores (Fig. 4). This crate rebuilds
//! that ingestion path as one deterministic mechanism, a partitioned log:
//!
//! - [`Event`]: a timestamped payload with headers, an optional
//!   partitioning key and, once a producer sent it, a typed
//!   `(producer, seq)` stamp. Its payload is a shared [`Bytes`] buffer.
//! - [`Topic`]: a partitioned, offset-addressed append-only log
//!   (Kafka-style) whose retention is [`Topic::truncate_before`], consumed by
//!   [`ConsumerGroup`]s with committed offsets and rebalancing. A consumer
//!   that commits after the store accepts each event gets at-least-once
//!   delivery under consumer crashes.
//! - [`Broker`] + [`ResilientProducer`]: fault injection from an
//!   [`scfault::FaultPlan`] — outage windows reject publishes, messages drop
//!   or lose their acks, and producers retry with seeded backoff for
//!   at-least-once delivery whose duplicates [`audit_delivery`] accounts —
//!   or a [`DeliveryAuditor`], window by window, with
//!   [`Topic::truncate_before`] dropping what it has counted.
//!
//! Windowed analytics over ingested events are not this crate's: sctsdb's
//! range aggregations and recording rules evaluate them at each window close.
//!
//! # Examples
//!
//! ```
//! use scstream::{Event, Topic};
//!
//! let mut topic = Topic::new("tweets", 4);
//! topic.publish(Event::with_key("gang-a", b"tweet text".to_vec()));
//! assert_eq!(topic.total_events(), 1);
//! ```

#![warn(clippy::too_many_lines)]

mod broker;
mod consumer;
mod event;
mod topic;

pub use broker::{
    audit_delivery, Broker, DeliveryAudit, DeliveryAuditor, ResilientProducer, SendOutcome,
};
pub use bytes::Bytes;
pub use consumer::{ConsumerGroup, ConsumerId, METRIC_COMMITS};
pub use event::Event;
pub use topic::{Offset, PartitionId, Topic, METRIC_CONSUME, METRIC_PUBLISH};
