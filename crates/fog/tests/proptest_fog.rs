//! Property tests for the fog simulator's physical invariants.

use proptest::prelude::*;
use scfault::{FaultKind, FaultPlan};
use scfog::{FogSimulator, Placement, Tier, Topology, Workload};
use simclock::{SimDuration, SimTime};

fn any_placement() -> impl Strategy<Value = Placement> {
    // Feature maps the size of an annotation (256 B) included.
    let split = || (0.0f64..1.0, prop_oneof![Just(256u64), 1_000u64..50_000]);
    prop_oneof![
        Just(Placement::AllEdge),
        Just(Placement::ServerOnly),
        Just(Placement::AllCloud),
        split().prop_map(|(f, b)| Placement::EarlyExit {
            local_fraction: f,
            feature_bytes: b,
        }),
        split().prop_map(|(f, b)| Placement::FogAssisted {
            local_fraction: f,
            feature_bytes: b,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every job completes; latencies are positive and ordered
    /// (p50 ≤ p95 ≤ max); utilizations lie in [0, 1].
    #[test]
    fn physical_invariants(
        jobs in 1usize..80,
        rate in 1.0f64..50.0,
        esc in 0.0f64..1.0,
        placement in any_placement(),
        seed in any::<u64>(),
    ) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let w = Workload::with_escalation(jobs, 50_000, rate, esc, seed);
        let r = sim.runner(&w).placement(placement).run();
        prop_assert_eq!(r.jobs, jobs);
        prop_assert!(r.mean_latency_s > 0.0);
        prop_assert!(r.p50_latency_s <= r.p95_latency_s + 1e-12);
        prop_assert!(r.p95_latency_s <= r.max_latency_s + 1e-12);
        prop_assert!(r.makespan_s > 0.0);
        for u in &r.tier_utilization {
            prop_assert!((0.0..=1.0).contains(&u.utilization), "{u:?}");
        }
    }

    /// All-cloud ships at least as many bytes as early-exit at any
    /// escalation rate (feature maps are smaller than raw frames).
    #[test]
    fn cloud_ships_most_bytes(
        jobs in 5usize..60,
        esc in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let w = Workload::with_escalation(jobs, 100_000, 10.0, esc, seed);
        let cloud = sim.runner(&w).placement(Placement::AllCloud).run();
        let early = sim.runner(&w).placement(Placement::EarlyExit { local_fraction: 0.3, feature_bytes: 20_000 }).run();
        prop_assert!(early.total_upstream_bytes() <= cloud.total_upstream_bytes());
    }

    /// All-edge never sends more than annotations upstream.
    #[test]
    fn all_edge_bytes_are_annotations_only(jobs in 1usize..60, seed in any::<u64>()) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let w = Workload::with_escalation(jobs, 100_000, 10.0, 0.5, seed);
        let r = sim.runner(&w).placement(Placement::AllEdge).run();
        // 256 bytes per job per boundary, 3 boundaries.
        prop_assert_eq!(r.total_upstream_bytes(), jobs as u64 * 256 * 3);
    }

    /// Determinism: identical inputs give identical reports.
    #[test]
    fn runs_are_deterministic(
        jobs in 1usize..40,
        esc in 0.0f64..1.0,
        seed in any::<u64>(),
        placement in any_placement(),
    ) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let w = Workload::with_escalation(jobs, 80_000, 15.0, esc, seed);
        let a = sim.runner(&w).placement(placement).run();
        let b = sim.runner(&w).placement(placement).run();
        prop_assert_eq!(a.mean_latency_s, b.mean_latency_s);
        prop_assert_eq!(a.total_upstream_bytes(), b.total_upstream_bytes());
        prop_assert_eq!(a.makespan_s, b.makespan_s);
    }

    /// Early-exit fog→server bytes are exactly
    /// escalated_jobs × feature_bytes (annotations bypass that link only
    /// for local exits).
    #[test]
    fn early_exit_byte_accounting(jobs in 1usize..60, seed in any::<u64>()) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let w = Workload::with_escalation(jobs, 100_000, 10.0, 0.5, seed);
        let escalated = w.jobs().iter().filter(|j| j.escalates).count() as u64;
        let local = jobs as u64 - escalated;
        let feature_bytes = 12_345u64;
        let r = sim.runner(&w).placement(Placement::EarlyExit { local_fraction: 0.2, feature_bytes }).run();
        prop_assert_eq!(
            r.fog_to_server_bytes,
            escalated * feature_bytes + local * 256
        );
    }

    /// A partition degrades a job because of what the stalled hop carries,
    /// not how large it is: jobs that do not escalate wait any partition out
    /// and ship exactly what they would have shipped — also when a feature
    /// map would be the size of their raw frame or of their annotation.
    #[test]
    fn jobs_that_do_not_escalate_never_degrade(
        jobs in 1usize..30,
        placement in any_placement(),
        uplink_pick in any::<usize>(),
        secs in 1u64..60,
        seed in any::<u64>(),
    ) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let raw_bytes = match placement {
            Placement::EarlyExit { feature_bytes, .. }
            | Placement::FogAssisted { feature_bytes, .. } => feature_bytes,
            _ => 50_000,
        };
        let w = Workload::with_escalation(jobs, raw_bytes, 10.0, 0.0, seed);
        let mut uplinks = sim.topology().nodes_in_tier(Tier::Edge);
        uplinks.extend(sim.topology().nodes_in_tier(Tier::Fog));
        let plan = FaultPlan::empty().with_event(
            SimTime::ZERO,
            FaultKind::LinkPartition {
                node: uplinks[uplink_pick % uplinks.len()].0,
                duration: SimDuration::from_secs(secs),
            },
        );
        let clean = sim.runner(&w).placement(placement).run();
        let r = sim.runner(&w).placement(placement).faults(&plan).run();
        prop_assert_eq!((r.jobs, r.jobs_degraded), (jobs, 0));
        prop_assert_eq!(r.edge_to_fog_bytes, clean.edge_to_fog_bytes);
        prop_assert_eq!(r.fog_to_server_bytes, clean.fog_to_server_bytes);
        prop_assert_eq!(r.server_to_cloud_bytes, clean.server_to_cloud_bytes);
    }

    /// Tier utilization: only the tiers a placement uses are busy.
    #[test]
    fn placement_utilization_profile(jobs in 5usize..40, seed in any::<u64>()) {
        let sim = FogSimulator::new(Topology::four_tier(3, 2, 1));
        let w = Workload::with_escalation(jobs, 50_000, 10.0, 0.5, seed);
        let edge = sim.runner(&w).placement(Placement::AllEdge).run();
        prop_assert!(edge.utilization_of(Tier::Edge) > 0.0);
        prop_assert_eq!(edge.utilization_of(Tier::Server), 0.0);
        prop_assert_eq!(edge.utilization_of(Tier::Cloud), 0.0);
        let cloud = sim.runner(&w).placement(Placement::AllCloud).run();
        prop_assert_eq!(cloud.utilization_of(Tier::Edge), 0.0);
        prop_assert!(cloud.utilization_of(Tier::Cloud) > 0.0);
    }
}
