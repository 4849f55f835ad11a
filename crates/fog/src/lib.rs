//! # scfog — four-tier fog computing simulator
//!
//! The paper's hardware layer (§II-B, Fig. 3) is "a fog computing model
//! consisting of four tiers": edge devices (smartphones, Raspberry Pis), fog
//! nodes (NVIDIA Jetson-class), analysis servers, and a federated cloud,
//! interconnected by regional networks and Internet2. Computation is divided
//! across the tiers so that confident local inferences send only annotations
//! upstream, while uncertain ones escalate raw feature maps.
//!
//! This crate simulates that stack with discrete events:
//!
//! - [`Topology`]: tiered nodes (FLOPS capacities) and links
//!   (latency + bandwidth), built by [`Topology::four_tier`].
//! - [`Placement`]: where each video-analysis job runs — all-edge,
//!   server-only, all-cloud, or the paper's early-exit split with the tiny
//!   model on the edge or on the fog node. A placement only names the tiers
//!   that compute and their shares of the work.
//! - [`FogSimulator`]: derives each job's plan by walking the uplinks from
//!   its edge to the cloud — compute where the placement says, ship
//!   upstream what is left (raw input, features or an annotation) — and
//!   executes the plans as discrete events, producing per-job latencies,
//!   upstream byte counts, and per-tier utilization — the quantities behind
//!   experiments E3 and E4.
//!
//! # Examples
//!
//! ```
//! use scfog::{FogSimulator, Placement, Topology, Workload};
//!
//! let topo = Topology::four_tier(8, 2, 1); // 8 edges per fog, 2 fogs per server
//! let workload = Workload::with_escalation(50, 100_000, 5.0, 0.3, 42);
//! let sim = FogSimulator::new(topo);
//! let report = sim
//!     .runner(&workload)
//!     .placement(Placement::EarlyExit {
//!         local_fraction: 0.3,
//!         feature_bytes: 20_000,
//!     })
//!     .run();
//! assert_eq!(report.jobs, 50);
//! ```
//!
//! Placement sweeps fan out across the [`scpar`] worker pool
//! (`SimRunner::sweep`); each individual run stays serial and
//! deterministic, so sweep results are identical for any thread count.
//!
//! Runs can execute under an [`scfault::FaultPlan`]
//! ([`SimRunner::faults`]): nodes crash and restart mid-sim, links
//! partition and spike, and the report grows `jobs_rerouted` /
//! `jobs_lost` / `jobs_degraded` / `recovery_time_s` columns describing
//! how the tiers routed around the damage.

// The engine is a handful of stages; keep it from growing back into one body.
#![warn(clippy::too_many_lines)]

mod sim;
mod topology;
mod workload;

pub use sim::{FogSimulator, SimReport, SimRunner, TierUtilization};
pub use topology::{FogNodeId, Link, NodeSpec, Tier, Topology};
pub use workload::{Job, Placement, Workload};
