//! Property tests: fault schedules are a pure function of (spec, seed).

use proptest::prelude::*;
use scfault::{FaultPlan, FaultSpec, LatencySpikes, MessageFaults, OutageWindows, RetryPolicy};
use simclock::{SeededRng, SimDuration};

fn spec(intensity: f64) -> FaultSpec {
    FaultSpec {
        crashes: 2.0,
        partitions: 2.0,
        latency_spikes: 2.0,
        message_faults: 3.0,
        corruptions: 2.0,
        ..FaultSpec::new(SimDuration::from_secs(120), 6)
    }
    .intensity(intensity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn same_seed_same_schedule(seed in any::<u64>()) {
        let a = FaultPlan::generate(&spec(1.5), seed);
        let b = FaultPlan::generate(&spec(1.5), seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn schedule_is_time_sorted(seed in any::<u64>()) {
        let p = FaultPlan::generate(&spec(2.0), seed);
        prop_assert!(p.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn derived_views_are_consistent(seed in any::<u64>()) {
        let p = FaultPlan::generate(&spec(2.0), seed);
        let crashes = OutageWindows::node_crashes(&p);
        for node in crashes.targets() {
            for &(s, e) in crashes.windows_for(node) {
                prop_assert!(s < e);
                prop_assert!(crashes.is_down(node, s));
                prop_assert!(!crashes.is_down(node, e), "window end is healed");
            }
        }
        let spikes = LatencySpikes::from_plan(&p);
        for ev in p.events() {
            if let scfault::FaultKind::LinkLatencySpike { node, factor, .. } = ev.kind {
                prop_assert!(spikes.factor_at(node, ev.at) >= factor.max(1.0));
            }
        }
        let faults = MessageFaults::from_plan(&p);
        let space = 0..spec(2.0).message_seq_space;
        let drops = space.clone().filter(|&seq| faults.is_dropped(seq)).count();
        let dups = space.filter(|&seq| faults.is_ack_lost(seq)).count();
        prop_assert!(drops + dups <= p.len());
    }

    #[test]
    fn retry_schedule_is_seeded(seed in any::<u64>(), base_ms in 1u64..100) {
        let policy = RetryPolicy::new(6, SimDuration::from_millis(base_ms));
        prop_assert_eq!(policy.schedule(seed), policy.schedule(seed));
        let mut a = SeededRng::new(seed);
        let mut b = SeededRng::new(seed);
        for k in 1..6 {
            prop_assert_eq!(policy.delay(k, &mut a), policy.delay(k, &mut b));
        }
    }
}
