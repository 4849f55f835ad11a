//! Jobs, workloads, and placement policies.
//!
//! A [`Placement`] is a policy stated once: `Placement::stages` lists the
//! tiers that compute a job, bottom-up, each with its share of the job's
//! operations, and `Placement::feature_bytes` sizes what a partial result
//! ships between two of them. Everything else about a plan — which node
//! runs a stage, which hops carry raw input, features or annotations — the
//! engine derives by walking the uplinks (`sim::route`), so a new division
//! of work is a new arm here and nothing there.

use simclock::{SeededRng, SimDuration, SimTime};

use crate::topology::Tier;

/// One video-analysis job: a frame (or clip) arriving at an edge device that
/// must end as an annotation in the cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Arrival time at the edge device.
    pub arrival: SimTime,
    /// Index of the source edge device (modulo the topology's edge count).
    pub edge_index: usize,
    /// Raw input size in bytes (e.g. a JPEG frame).
    pub raw_bytes: u64,
    /// Total model compute in operations for a *full* inference.
    pub total_ops: f64,
    /// Annotation size shipped to the cloud after analysis.
    pub annotation_bytes: u64,
    /// Pre-drawn early-exit outcome: `true` means the local exit is *not*
    /// confident and the job escalates (only consulted by
    /// [`Placement::EarlyExit`] and [`Placement::FogAssisted`]).
    pub escalates: bool,
}

/// A collection of jobs.
#[derive(Debug, Clone)]
pub struct Workload {
    jobs: Vec<Job>,
}

impl Workload {
    /// Builds a Poisson-ish workload: `n` jobs with exponential inter-arrival
    /// times (mean `1/rate_hz` seconds between jobs across the whole fleet),
    /// each `raw_bytes` large, spread round-robin over edge devices, a
    /// fraction `escalation_rate` of them escalating (the jobs whose local
    /// inference is not confident — in the paper, frames where the tiny
    /// model's score is below threshold).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= escalation_rate <= 1` and `rate_hz > 0`.
    pub fn with_escalation(
        n: usize,
        raw_bytes: u64,
        rate_hz: f64,
        escalation_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&escalation_rate),
            "escalation rate in [0,1]"
        );
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        let mut rng = SeededRng::new(seed);
        let mut t = SimTime::ZERO;
        let jobs = (0..n)
            .map(|i| {
                t += SimDuration::from_secs_f64(rng.exponential(rate_hz));
                Job {
                    arrival: t,
                    edge_index: i,
                    raw_bytes,
                    // Full inference ≈ YOLOv2-scale: ~3e9 ops with jitter.
                    total_ops: 3e9 * rng.range_f64(0.8, 1.2),
                    annotation_bytes: 256,
                    escalates: rng.chance(escalation_rate),
                }
            })
            .collect();
        Workload { jobs }
    }

    /// The jobs in arrival order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Where the computation of each job runs (Fig. 3's division of
/// computation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Full model on the edge device; only annotations go upstream.
    AllEdge,
    /// Raw data shipped to the analysis server; full model there.
    ServerOnly,
    /// Raw data shipped all the way to the cloud; full model there.
    AllCloud,
    /// The paper's split (Figs. 5/7): a tiny model (`local_fraction` of the
    /// full ops) runs on the edge; jobs flagged as escalating ship a
    /// `feature_bytes` feature map to the analysis server, which runs the
    /// remaining ops.
    EarlyExit {
        /// Fraction of `total_ops` the local/tiny model costs.
        local_fraction: f64,
        /// Feature-map bytes shipped upstream on escalation.
        feature_bytes: u64,
    },
    /// §II-B1's fog variant: "we utilize fog nodes to run inferences using
    /// the first few layers of a deep learning model". Raw frames hop one
    /// link to the fog node, which runs the tiny model (it has ~10× the edge
    /// FLOPS); escalations continue to the analysis server.
    FogAssisted {
        /// Fraction of `total_ops` the fog-side tiny model costs.
        local_fraction: f64,
        /// Feature-map bytes shipped upstream on escalation.
        feature_bytes: u64,
    },
}

impl Placement {
    /// The tiers that compute `job`, bottom-up, each with its share of
    /// `job.total_ops`: one stage for the whole-model placements; for the
    /// split ones the local share and, iff the job escalates, the rest at
    /// the analysis server.
    pub(crate) fn stages(&self, job: &Job) -> Vec<(Tier, f64)> {
        let split = |tier, local_fraction: f64| {
            let local = local_fraction.clamp(0.0, 1.0);
            let mut stages = vec![(tier, job.total_ops * local)];
            if job.escalates {
                stages.push((Tier::Server, job.total_ops * (1.0 - local)));
            }
            stages
        };
        match *self {
            Placement::AllEdge => vec![(Tier::Edge, job.total_ops)],
            Placement::ServerOnly => vec![(Tier::Server, job.total_ops)],
            Placement::AllCloud => vec![(Tier::Cloud, job.total_ops)],
            Placement::EarlyExit { local_fraction, .. } => split(Tier::Edge, local_fraction),
            Placement::FogAssisted { local_fraction, .. } => split(Tier::Fog, local_fraction),
        }
    }

    /// Bytes a hop between two stages carries. The whole-model placements
    /// have one stage, so nothing ever reads their 0.
    pub(crate) fn feature_bytes(&self) -> u64 {
        match *self {
            Placement::EarlyExit { feature_bytes, .. }
            | Placement::FogAssisted { feature_bytes, .. } => feature_bytes,
            Placement::AllEdge | Placement::ServerOnly | Placement::AllCloud => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_time_ordered() {
        let w = Workload::with_escalation(100, 50_000, 10.0, 0.3, 1);
        for pair in w.jobs().windows(2) {
            assert!(pair[1].arrival >= pair[0].arrival);
        }
    }

    #[test]
    fn escalation_rate_respected() {
        let w = Workload::with_escalation(2000, 1000, 10.0, 0.25, 2);
        let esc = w.jobs().iter().filter(|j| j.escalates).count();
        let rate = esc as f64 / 2000.0;
        assert!((rate - 0.25).abs() < 0.04, "drawn rate {rate}");
    }

    #[test]
    fn zero_and_full_escalation() {
        let w0 = Workload::with_escalation(100, 1000, 10.0, 0.0, 3);
        assert!(w0.jobs().iter().all(|j| !j.escalates));
        let w1 = Workload::with_escalation(100, 1000, 10.0, 1.0, 3);
        assert!(w1.jobs().iter().all(|j| j.escalates));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Workload::with_escalation(50, 1000, 5.0, 0.3, 4);
        let b = Workload::with_escalation(50, 1000, 5.0, 0.3, 4);
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    #[should_panic(expected = "escalation rate")]
    fn bad_escalation_rate_panics() {
        let _ = Workload::with_escalation(1, 1, 1.0, 1.5, 0);
    }
}
