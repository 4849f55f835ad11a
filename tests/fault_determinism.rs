//! Property tests for the scfault determinism contract (E16).
//!
//! Faults are data, not dice: a [`FaultPlan`] is fixed before the run, and
//! every retry delay is a pure function of the seed. So for a given
//! `(workload, plan, seed)`, fog sweeps under fault injection must produce
//! **byte-identical** reports *and* byte-identical Prometheus snapshots for
//! any worker count — the same promise scpar makes for fault-free runs,
//! extended to runs where nodes crash, links partition, and jobs re-route
//! mid-sim.

use proptest::prelude::*;
use smartcity::fault::{FaultPlan, FaultSpec};
use smartcity::fog::{FogSimulator, Placement, Topology, Workload};
use smartcity::simclock::SimDuration;

const THREAD_COUNTS: [usize; 2] = [2, 8];

fn spec(nodes: u32) -> FaultSpec {
    FaultSpec {
        crashes: 2.0,
        partitions: 2.0,
        latency_spikes: 1.0,
        ..FaultSpec::new(SimDuration::from_secs(15), nodes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The schedule itself is a pure function of (spec, seed): generating
    /// twice yields equal plans and event listings.
    #[test]
    fn fault_plans_are_reproducible(seed in any::<u64>(), intensity in 0.0f64..3.0) {
        let s = spec(11).intensity(intensity);
        let a = FaultPlan::generate(&s, seed);
        let b = FaultPlan::generate(&s, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
    }

    /// Faulted fog sweeps: crash re-routing, partition store-and-forward,
    /// retry backoff, and degradation all happen identically at any thread
    /// count — reports and Prometheus exports are byte-for-byte equal.
    #[test]
    fn faulted_fog_sweep_is_thread_count_independent(
        jobs in 1usize..50,
        esc in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let topo = Topology::four_tier(3, 2, 2);
        let nodes = topo.len() as u32;
        let sim = FogSimulator::new(topo);
        let w = Workload::with_escalation(jobs, 100_000, 10.0, esc, seed);
        let plan = FaultPlan::generate(&spec(nodes), seed ^ 0xE16);
        let placements = [
            Placement::AllCloud,
            Placement::EarlyExit { local_fraction: 0.3, feature_bytes: 20_000 },
            Placement::ServerOnly,
            // Features the size of a raw frame: what a stalled hop does is
            // decided by what it carries, at any thread count.
            Placement::FogAssisted { local_fraction: 0.3, feature_bytes: 100_000 },
        ];
        let serial: Vec<(String, String)> = sim
            .runner(&w)
            .threads(1)
            .faults(&plan)
            .sweep_recorded(&placements)
            .into_iter()
            .map(|(r, snap)| (format!("{r:?}"), snap))
            .collect();
        for threads in THREAD_COUNTS {
            let par: Vec<(String, String)> = sim
                .runner(&w)
                .threads(threads)
                .faults(&plan)
                .sweep_recorded(&placements)
                .into_iter()
                .map(|(r, snap)| (format!("{r:?}"), snap))
                .collect();
            prop_assert_eq!(&serial, &par, "{}-thread faulted sweep diverged", threads);
        }
    }

    /// Repeating the identical faulted run (same seed, same plan) twice at
    /// the same thread count is also byte-identical — no hidden global
    /// state leaks between runs.
    #[test]
    fn faulted_runs_are_repeatable(jobs in 1usize..40, seed in any::<u64>()) {
        let run = || {
            let topo = Topology::four_tier(2, 2, 1);
            let nodes = topo.len() as u32;
            let sim = FogSimulator::new(topo);
            let w = Workload::with_escalation(jobs, 80_000, 10.0, 0.5, seed);
            let plan = FaultPlan::generate(&spec(nodes), seed);
            let placement = Placement::EarlyExit { local_fraction: 0.3, feature_bytes: 20_000 };
            let mut out = sim
                .runner(&w)
                .faults(&plan)
                .sweep_recorded(&[placement]);
            let (report, snapshot) = out.remove(0);
            (format!("{report:?}"), snapshot)
        };
        prop_assert_eq!(run(), run());
    }
}
