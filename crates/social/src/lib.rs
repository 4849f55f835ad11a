//! # scsocial — criminal network analysis
//!
//! Reproduces the paper's §IV-B social-network application. The paper's
//! numbers, which the synthetic generator is calibrated to:
//!
//! > "of the 67 groups and gangs and their 982 members identified and
//! > observed in Baton Rouge area over the past 6 years, each gang member has
//! > a network size of 14 first-degree associates on average. However,
//! > best-practices suggest that investigative techniques extend to
//! > second-degree affiliates as well ... This approach may yield a field of
//! > interest which contains approximately 200 second-degree associates."
//!
//! - [`SocialGraph`]: co-offense/affiliation graph with BFS k-degree
//!   expansion, and its GraphX-style view for shortest paths.
//! - [`GangNetworkGenerator`]: builds a synthetic Baton Rouge network with
//!   exactly those statistics (67 gangs, 982 members, mean first-degree ≈ 14,
//!   second-degree field ≈ 200).
//! - [`nlp`]: tokenization and risk-keyword scoring of tweet text.
//! - [`narrowing`]: the multi-modal (graph × geo × time × text) filter that
//!   shrinks the second-degree field to a small persons-of-interest list.
//!
//! # Examples
//!
//! ```
//! use scsocial::GangNetworkGenerator;
//!
//! let net = GangNetworkGenerator::baton_rouge(42).generate();
//! assert_eq!(net.gang_count(), 67);
//! assert_eq!(net.member_count(), 982);
//! ```

mod generator;
mod graph;
pub mod narrowing;
pub mod nlp;

pub use generator::{GangNetwork, GangNetworkGenerator};
pub use graph::{NetworkStats, PersonId, SocialGraph};
