//! # scstream — real-time data ingestion
//!
//! The paper's software layer uses Apache Flume "for real-time data transfers
//! from various information sources" (§II-C2), feeding video annotations,
//! tweets, and Waze reports into NoSQL stores (Fig. 4). This crate rebuilds
//! that ingestion path as a deterministic substrate:
//!
//! - [`Event`]: a timestamped payload with headers and an optional
//!   partitioning key.
//! - [`MemoryChannel`]: a bounded buffer between source and sink with
//!   backpressure (Flume's channel).
//! - [`Topic`]: a partitioned, offset-addressed append-only log
//!   (Kafka-style), consumed by [`ConsumerGroup`]s with committed offsets and
//!   rebalancing — giving at-least-once delivery under consumer crashes.
//! - [`Pipeline`]: wires a [`Source`] through a channel to a [`Sink`] with
//!   ack-after-delivery semantics.
//! - [`Broker`] + [`ResilientProducer`]: fault injection from an
//!   [`scfault::FaultPlan`] — outage windows reject publishes, messages drop
//!   or lose their acks, and producers retry with seeded backoff for
//!   at-least-once delivery whose duplicates [`audit_delivery`] accounts —
//!   or a [`DeliveryAuditor`], window by window, with
//!   [`Topic::truncate_before`] dropping what it has counted.
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
mod channel;
mod consumer;
mod event;
mod pipeline;
mod topic;
pub mod windows;

pub use broker::{
    audit_delivery, Broker, DeliveryAudit, DeliveryAuditor, PublishError, ResilientProducer,
    SendOutcome, HEADER_PRODUCER, HEADER_SEQ, METRIC_BROKER_DROPPED, METRIC_BROKER_REJECTED,
    METRIC_PRODUCER_DUPLICATES, METRIC_PRODUCER_LOST, METRIC_PRODUCER_RETRIES,
};
pub use channel::{ChannelError, MemoryChannel};
pub use consumer::{ConsumerGroup, ConsumerId, METRIC_COMMITS, METRIC_LAG};
pub use event::Event;
pub use pipeline::{
    CollectingSink, FilterInterceptor, HeaderInterceptor, Interceptor, Pipeline, PipelineStats,
    Sink, Source, VecSource,
};
pub use topic::{Offset, PartitionId, Topic, METRIC_CONSUME, METRIC_PUBLISH};
