//! A Spark-like partitioned dataflow engine.
//!
//! A [`Dataset<T>`] is a list of partitions. The *narrow* transformation
//! (map) runs partition-parallel on the `scpar` pool with no data movement;
//! the *wide* one (reduce-by-key) hash-partitions records by key across a
//! shuffle boundary, with the shuffled record volume accounted in shared
//! [`ExecStats`].

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use scpar::ScparConfig;
use simclock::hash::{fnv1a, fnv1a_from, mix64};

/// Execution counters shared along a lineage of datasets.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Narrow (pipelined, partition-local) stages executed.
    pub narrow_stages: u64,
    /// Wide (shuffle) stages executed.
    pub shuffle_stages: u64,
    /// Records moved across the shuffle boundary.
    pub shuffled_records: u64,
}

/// The counters of a lineage. A stage that panics while holding them leaves
/// whole integers, so a poisoned lock is recovered.
#[derive(Debug, Default)]
struct StatsCell(Mutex<ExecStats>);

/// A partitioned, immutable dataset.
///
/// # Examples
///
/// ```
/// use sccompute::dataflow::Dataset;
///
/// let words = Dataset::from_vec(
///     "a b b c a a".split(' ').map(String::from).collect::<Vec<_>>(),
///     2,
/// );
/// let counts = words
///     .map(|w| (w.clone(), 1u64))
///     .reduce_by_key(|a, b| a + b);
/// let mut out = counts.collect();
/// out.sort();
/// let expect = vec![
///     (String::from("a"), 3),
///     (String::from("b"), 2),
///     (String::from("c"), 1),
/// ];
/// assert_eq!(out, expect);
/// ```
#[derive(Debug)]
pub struct Dataset<T> {
    partitions: Vec<Vec<T>>,
    stats: Arc<StatsCell>,
    /// The pool stages fan out on: the ambient one when the lineage began.
    par: ScparConfig,
}

/// The shuffle bucket of `k` among `parts`: the workspace's one hash
/// (`simclock::hash`) behind std's `Hasher`, so a bucket does not depend on
/// which algorithm a toolchain's default hasher happens to be.
fn hash_key<K: Hash>(k: &K, parts: usize) -> usize {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn write(&mut self, bytes: &[u8]) {
            self.0 = fnv1a_from(self.0, bytes);
        }
        fn finish(&self) -> u64 {
            mix64(self.0)
        }
    }
    let mut h = Fnv(fnv1a(&[]));
    k.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

impl<T: Send + Sync + Clone> Dataset<T> {
    /// Creates a dataset by splitting `data` into `partitions` roughly equal
    /// chunks.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn from_vec(data: Vec<T>, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let per = data.len().div_ceil(partitions).max(1);
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(partitions);
        let mut iter = data.into_iter();
        for _ in 0..partitions {
            parts.push(iter.by_ref().take(per).collect());
        }
        Dataset {
            partitions: parts,
            stats: Arc::new(StatsCell::default()),
            par: ScparConfig::from_env(),
        }
    }

    fn with_lineage<U>(&self, partitions: Vec<Vec<U>>) -> Dataset<U> {
        Dataset {
            partitions,
            stats: Arc::clone(&self.stats),
            par: self.par,
        }
    }

    fn record_narrow_stage(&self) {
        let mut stats = self.stats.0.lock().unwrap_or_else(|e| e.into_inner());
        stats.narrow_stages += 1;
    }

    fn record_shuffle(&self, moved: u64) {
        let mut stats = self.stats.0.lock().unwrap_or_else(|e| e.into_inner());
        stats.shuffle_stages += 1;
        stats.shuffled_records += moved;
    }

    /// Execution statistics accumulated along this lineage.
    pub fn stats(&self) -> ExecStats {
        *self.stats.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs a closure on every partition in parallel, collecting outputs in
    /// partition order — the engine's core primitive.
    fn run_partitions<U, F>(&self, f: F) -> Vec<Vec<U>>
    where
        U: Send,
        F: Fn(&[T]) -> Vec<U> + Send + Sync,
    {
        scpar::par_map(&self.par, &self.partitions, |part| f(part))
    }

    /// Narrow: element-wise transformation.
    pub fn map<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Send + Clone,
        F: Fn(&T) -> U + Send + Sync,
    {
        self.record_narrow_stage();
        let parts = self.run_partitions(|p| p.iter().map(&f).collect());
        self.with_lineage(parts)
    }

    /// Action: fold all elements with a commutative, associative operator.
    pub fn reduce<F>(&self, identity: T, f: F) -> T
    where
        F: Fn(T, T) -> T + Send + Sync,
        T: 'static,
    {
        let partials = self.run_partitions(|p| {
            vec![p.iter().cloned().fold(None::<T>, |acc, x| {
                Some(match acc {
                    None => x,
                    Some(a) => f(a, x),
                })
            })]
        });
        partials.into_iter().flatten().flatten().fold(identity, f)
    }

    /// Action: total element count.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Action: materialize all elements in partition order.
    pub fn collect(&self) -> Vec<T> {
        self.partitions.iter().flatten().cloned().collect()
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Send + Sync + Clone + Hash + Eq + Ord,
    V: Send + Sync + Clone,
{
    /// Wide: merge values per key with a combiner. Performs map-side
    /// combining before the shuffle (Spark's `reduceByKey`).
    pub fn reduce_by_key<F>(&self, f: F) -> Dataset<(K, V)>
    where
        F: Fn(V, V) -> V + Send + Sync,
    {
        // Map-side combine within each partition.
        let combined = self.run_partitions(|p| {
            let mut local: HashMap<K, V> = HashMap::new();
            for (k, v) in p {
                match local.remove(k) {
                    None => {
                        local.insert(k.clone(), v.clone());
                    }
                    Some(acc) => {
                        local.insert(k.clone(), f(acc, v.clone()));
                    }
                }
            }
            let mut out: Vec<(K, V)> = local.into_iter().collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        });
        // Shuffle combined records by key.
        let parts = self.partitions.len();
        let mut buckets: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
        let mut moved = 0u64;
        for part in combined {
            for (k, v) in part {
                buckets[hash_key(&k, parts)].push((k, v));
                moved += 1;
            }
        }
        self.record_shuffle(moved);
        // Reduce-side merge.
        let reduced: Vec<Vec<(K, V)>> = buckets
            .into_iter()
            .map(|bucket| {
                let mut acc: HashMap<K, V> = HashMap::new();
                for (k, v) in bucket {
                    match acc.remove(&k) {
                        None => {
                            acc.insert(k, v);
                        }
                        Some(prev) => {
                            acc.insert(k, f(prev, v));
                        }
                    }
                }
                let mut out: Vec<(K, V)> = acc.into_iter().collect();
                out.sort_by(|a, b| a.0.cmp(&b.0));
                out
            })
            .collect();
        self.with_lineage(reduced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-partition record counts.
    fn sizes<T>(ds: &Dataset<T>) -> Vec<usize> {
        ds.partitions.iter().map(Vec::len).collect()
    }

    #[test]
    fn from_vec_partitioning() {
        let ds = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(ds.partitions.len(), 3);
        assert_eq!(ds.count(), 10);
        assert_eq!(ds.collect(), (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn reduce_sums() {
        let ds = Dataset::from_vec((1..=100).collect::<Vec<i64>>(), 7);
        assert_eq!(ds.reduce(0, |a, b| a + b), 5050);
    }

    #[test]
    fn reduce_empty_partitions() {
        let ds = Dataset::from_vec(vec![5i64], 4); // 3 empty partitions
        assert_eq!(ds.reduce(0, |a, b| a + b), 5);
    }

    #[test]
    fn word_count() {
        let words: Vec<String> = ["the quick fox", "the lazy dog", "the fox"]
            .iter()
            .flat_map(|l| l.split(' '))
            .map(String::from)
            .collect();
        let ds = Dataset::from_vec(words, 2);
        let mut counts = ds
            .map(|w| (w.clone(), 1u64))
            .reduce_by_key(|a, b| a + b)
            .collect();
        counts.sort();
        assert_eq!(
            counts,
            vec![
                ("dog".into(), 1),
                ("fox".into(), 2),
                ("lazy".into(), 1),
                ("quick".into(), 1),
                ("the".into(), 3)
            ]
        );
    }

    #[test]
    fn reduce_by_key_counts_shuffle() {
        let ds = Dataset::from_vec(
            (0..100).map(|i| (i % 5, 1u64)).collect::<Vec<(i32, u64)>>(),
            4,
        );
        let out = ds.reduce_by_key(|a, b| a + b);
        assert_eq!(out.count(), 5);
        let stats = ds.stats();
        assert_eq!(stats.shuffle_stages, 1);
        // Map-side combine: at most 5 keys per partition × 4 partitions.
        assert!(stats.shuffled_records <= 20, "{stats:?}");
    }

    #[test]
    fn buckets_and_reductions_do_not_depend_on_the_pool() {
        // FNV-1a + splitmix64 of the key's native bytes: pinned, so a change
        // of hash (or of toolchain) cannot re-bucket a shuffle unnoticed.
        let mut buckets = [0; 5];
        for x in 0..50i32 {
            buckets[hash_key(&x, 5)] += 1;
        }
        assert_eq!(buckets, [8, 12, 9, 7, 14]);

        let reduced = |threads| {
            let mut ds = Dataset::from_vec((0..400).map(|i| (i % 7, i as f64 * 0.1)).collect(), 8);
            ds.par = ScparConfig::with_threads(threads);
            let out = ds.reduce_by_key(|a, b| a + b);
            (sizes(&out), out.collect())
        };
        let serial = reduced(1);
        assert_eq!(serial.1.len(), 7);
        assert_eq!(serial, reduced(2));
        assert_eq!(serial, reduced(8));
    }

    #[test]
    fn narrow_ops_move_no_data() {
        let ds = Dataset::from_vec((0..1000).collect::<Vec<i32>>(), 8);
        let out = ds.map(|x| x + 1).map(|x| x * 2).collect();
        assert_eq!(out, (1..=1000).map(|x| x * 2).collect::<Vec<i32>>());
        assert_eq!(ds.stats().narrow_stages, 2);
        assert_eq!(ds.stats().shuffle_stages, 0);
        assert_eq!(ds.stats().shuffled_records, 0);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _: Dataset<i32> = Dataset::from_vec(vec![], 0);
    }
}
