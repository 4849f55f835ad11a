//! Property tests: the dataflow engine must agree with plain iterator
//! semantics, and the scheduler must never over-allocate.

use proptest::prelude::*;
use sccompute::dataflow::Dataset;
use sccompute::yarn::{AppId, Policy, Resource, ResourceManager};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// map/reduce over any partitioning equals the sequential result.
    #[test]
    fn dataflow_matches_iterators(
        data in proptest::collection::vec(-100i64..100, 0..200),
        parts in 1usize..8,
    ) {
        let ds = Dataset::from_vec(data.clone(), parts);
        let got: i64 = ds.map(|x| x * 3).reduce(0, |a, b| a + b);
        let want: i64 = data.iter().map(|x| x * 3).sum();
        prop_assert_eq!(got, want);
        prop_assert_eq!(ds.count(), data.len());
    }

    /// reduce_by_key equals a HashMap fold, for any keys and partitioning.
    #[test]
    fn reduce_by_key_matches_hashmap(
        pairs in proptest::collection::vec((0u8..16, 1i64..50), 0..150),
        parts in 1usize..6,
    ) {
        let ds = Dataset::from_vec(pairs.clone(), parts);
        let mut got = ds.reduce_by_key(|a, b| a + b).collect();
        got.sort();
        let mut model: std::collections::BTreeMap<u8, i64> = Default::default();
        for (k, v) in pairs {
            *model.entry(k).or_default() += v;
        }
        let want: Vec<(u8, i64)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// The scheduler never over-allocates any node, under any request mix
    /// and policy, including after releases.
    #[test]
    fn scheduler_never_overallocates(
        requests in proptest::collection::vec((0u32..4, 128u64..4096, 1u32..4), 0..40),
        policy_pick in 0usize..3,
        release_every in 1usize..5,
    ) {
        let policy = match policy_pick {
            0 => Policy::Fifo,
            1 => Policy::Fair,
            _ => Policy::Capacity(vec![("q".into(), 1.0)]),
        };
        let mut rm = ResourceManager::new(policy);
        rm.add_node(Resource::new(4096, 8));
        rm.add_node(Resource::new(2048, 4));
        for (i, (app, mem, cores)) in requests.into_iter().enumerate() {
            rm.submit(AppId(app), "q", Resource::new(mem, cores));
            let allocated = rm.schedule();
            prop_assert!(rm.check_invariants(), "over-allocation detected");
            if i % release_every == 0 {
                if let Some(c) = allocated.first() {
                    rm.release(c.id);
                    prop_assert!(rm.check_invariants());
                }
            }
        }
        prop_assert!(rm.utilization() <= 1.0);
    }
}
