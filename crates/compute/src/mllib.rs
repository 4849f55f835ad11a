//! Data mining on the dataflow engine — the Spark MLlib analogue (§II-C3).
//!
//! Algorithms run *through* [`Dataset`] map/reduce operations, so the k-means
//! used by the crime hot-spot experiment (E10) genuinely exercises the
//! distributed engine: assignment is a narrow map, centroid updates are a
//! `reduce_by_key` shuffle.

use sctelemetry::WorkDelta;
use simclock::SeededRng;

use crate::dataflow::Dataset;

/// Work-accounting kernel of the k-means assignment step (distances).
const KERNEL_KMEANS_ASSIGN: &str = "compute/kmeans/assign";
/// Work-accounting kernel of the k-means centroid-update step.
const KERNEL_KMEANS_UPDATE: &str = "compute/kmeans/update";

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    /// Final centroids, one per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Within-cluster sum of squared distances.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

impl KMeansModel {
    /// Index of the centroid nearest to `point`.
    pub fn predict(&self, point: &[f64]) -> usize {
        nearest(point, &self.centroids).0
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    centroids
        .iter()
        .enumerate()
        .map(|(i, c)| (i, sq_dist(p, c)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one centroid")
}

/// k-means++ seeding of `k` centroids from `seed`, shared by both k-means
/// variants so they start from the same centroids.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points, or if points have
/// inconsistent dimensionality.
fn seed_centroids(points: &[Vec<f64>], k: usize, seed: u64) -> Vec<Vec<f64>> {
    assert!(k > 0 && k <= points.len(), "k out of range");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "inconsistent dimensions"
    );
    let mut rng = SeededRng::new(seed);
    let mut centroids: Vec<Vec<f64>> = vec![points[rng.index(points.len())].clone()];
    while centroids.len() < k {
        let weights: Vec<f64> = points.iter().map(|p| nearest(p, &centroids).1).collect();
        let total: f64 = weights.iter().sum();
        let idx = if total <= 0.0 {
            rng.index(points.len())
        } else {
            rng.weighted_index(&weights)
        };
        centroids.push(points[idx].clone());
    }
    centroids
}

/// One Lloyd update: moves each centroid to the mean of its `(sum, count)`
/// (an empty cluster stays put) and reports whether the centroids settled.
fn update_centroids(
    centroids: &mut Vec<Vec<f64>>,
    sums: impl IntoIterator<Item = (usize, (Vec<f64>, u64))>,
) -> bool {
    let mut next = centroids.clone();
    for (c, (sum, count)) in sums {
        if count > 0 {
            next[c] = sum.iter().map(|s| s / count as f64).collect();
        }
    }
    let moved: f64 = centroids
        .iter()
        .zip(&next)
        .map(|(a, b)| sq_dist(a, b))
        .sum();
    *centroids = next;
    moved < 1e-12
}

/// Distributed Lloyd's k-means with k-means++ initialization.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points, or if points have
/// inconsistent dimensionality.
///
/// # Examples
///
/// ```
/// use sccompute::dataflow::Dataset;
/// use sccompute::mllib::kmeans;
///
/// let pts = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0], vec![5.1, 5.0]];
/// let ds = Dataset::from_vec(pts, 2);
/// let model = kmeans(&ds, 2, 10, 42);
/// assert_eq!(model.centroids.len(), 2);
/// assert!(model.inertia < 0.1);
/// ```
pub fn kmeans(data: &Dataset<Vec<f64>>, k: usize, max_iters: usize, seed: u64) -> KMeansModel {
    let points = data.collect();
    let mut centroids = seed_centroids(&points, k, seed);

    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let current = centroids.clone();
        // Assignment (narrow) + centroid aggregation (shuffle).
        let sums = data
            .map(move |p| {
                let (c, _) = nearest(p, &current);
                (c, (p.clone(), 1u64))
            })
            .reduce_by_key(|(mut sa, ca), (sb, cb)| {
                for (a, b) in sa.iter_mut().zip(&sb) {
                    *a += b;
                }
                (sa, ca + cb)
            })
            .collect();
        if update_centroids(&mut centroids, sums) {
            break;
        }
    }

    let inertia = points.iter().map(|p| nearest(p, &centroids).1).sum();
    KMeansModel {
        centroids,
        inertia,
        iterations,
    }
}

/// Points per assignment chunk in [`kmeans_ctx`]. Fixed (a function of the
/// input only, never of the thread count) so partial sums fold identically
/// for any pool size.
const KMEANS_CHUNK_POINTS: usize = 256;

/// Shared-memory Lloyd's k-means under an
/// [`ExecCtx`](scneural::exec::ExecCtx), with the assignment step fanned
/// out over the `scpar` worker pool and per-step work accounting.
///
/// Unlike [`kmeans`], which runs *through* the dataflow engine (and is the
/// variant that exercises shuffles), this operates on an in-memory slice:
/// each iteration splits the points into fixed 256-point chunks, computes
/// per-chunk centroid sums in parallel, and folds the partials in chunk
/// order — so centroids are bit-identical for any thread
/// count, including serial. Seeding (k-means++) matches [`kmeans`] exactly.
///
/// Records the assignment step (all point-centroid distances, plus the
/// final inertia pass) under kernel `compute/kmeans/assign` and the centroid
/// update (partial-sum accumulation, fold, and division) under
/// `compute/kmeans/update`, one delta per iteration. Iteration counts and
/// the closed-form work formulas depend only on the input, so the
/// recorded totals are identical at any thread count.
///
/// Each scpar task covers whole 256-point accumulation
/// *cells*, one task per worker ([`scpar::ScparConfig::task_size`]).
/// Partial sums are always computed per cell and folded in global cell
/// order, so the floating-point reduction tree — and therefore every
/// centroid bit — is identical for any task granularity and any thread
/// count. Work accounting likewise stays on the per-cell formulas.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points, or if points have
/// inconsistent dimensionality.
pub fn kmeans_ctx(
    points: &[Vec<f64>],
    k: usize,
    max_iters: usize,
    seed: u64,
    ctx: &scneural::exec::ExecCtx,
) -> KMeansModel {
    let cells = points.len().div_ceil(KMEANS_CHUNK_POINTS);
    let cells_per_task = ctx.par().task_size(cells, 1);
    kmeans_cells(points, k, max_iters, seed, ctx, cells_per_task)
}

/// [`kmeans_ctx`] at an explicit, positive number of cells per scpar task —
/// the schedule only, so every `cells_per_task` gives the same bits.
fn kmeans_cells(
    points: &[Vec<f64>],
    k: usize,
    max_iters: usize,
    seed: u64,
    ctx: &scneural::exec::ExecCtx,
    cells_per_task: usize,
) -> KMeansModel {
    let (cfg, telemetry) = (ctx.par(), ctx.telemetry());
    let mut centroids = seed_centroids(points, k, seed);
    let dim = points[0].len();

    let n = points.len() as u64;
    let chunks = points.len().div_ceil(KMEANS_CHUNK_POINTS) as u64;
    let (kd, dimd) = (k as u64, dim as u64);
    // One full assignment sweep: 3 flops per dimension per point-centroid
    // pair.
    let assign = WorkDelta::flops(3 * n * kd * dimd)
        .with_bytes(8 * dimd * (n + kd))
        .with_items(n);
    // Schedule only — the per-cell fold below is what fixes the bits.
    let task_points = cells_per_task * KMEANS_CHUNK_POINTS;
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        if telemetry.is_enabled() {
            // One delta per iteration, closed-form in (n, k, dim, chunks):
            // the update accumulates every point into its centroid sum,
            // folds the fixed chunk partials, and divides.
            telemetry.work(KERNEL_KMEANS_ASSIGN, assign);
            telemetry.work(
                KERNEL_KMEANS_UPDATE,
                WorkDelta::flops(n * dimd + chunks * kd * dimd + kd * dimd).with_items(kd),
            );
        }
        let current = &centroids;
        // Each task accumulates per fixed-size cell; the fold walks cells
        // in global order, so the reduction tree is independent of
        // `cells_per_task` and of the thread count.
        let partials = scpar::par_map_chunks(cfg, points, task_points, |_ci, task| {
            task.chunks(KMEANS_CHUNK_POINTS)
                .map(|cell| {
                    let mut sums = vec![vec![0.0f64; dim]; k];
                    let mut counts = vec![0u64; k];
                    for p in cell {
                        let (c, _) = nearest(p, current);
                        for (a, b) in sums[c].iter_mut().zip(p) {
                            *a += b;
                        }
                        counts[c] += 1;
                    }
                    (sums, counts)
                })
                .collect::<Vec<_>>()
        });
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0u64; k];
        for (ps, pc) in partials.into_iter().flatten() {
            for (acc, part) in sums.iter_mut().zip(&ps) {
                for (a, b) in acc.iter_mut().zip(part) {
                    *a += b;
                }
            }
            for (a, b) in counts.iter_mut().zip(&pc) {
                *a += b;
            }
        }
        if update_centroids(&mut centroids, sums.into_iter().zip(counts).enumerate()) {
            break;
        }
    }

    if telemetry.is_enabled() {
        // Final inertia pass is one more full assignment sweep.
        telemetry.work(KERNEL_KMEANS_ASSIGN, assign);
    }
    let inertia = scpar::par_map_chunks(cfg, points, task_points, |_ci, task| {
        task.chunks(KMEANS_CHUNK_POINTS)
            .map(|cell| cell.iter().map(|p| nearest(p, &centroids).1).sum::<f64>())
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .sum();
    KMeansModel {
        centroids,
        inertia,
        iterations,
    }
}

/// A fitted ordinary-least-squares style linear model (via gradient descent).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

impl LinearModel {
    /// Predicted value.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.bias + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }
}

/// Gradient-descent linear regression over `(features, target)` pairs.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn linear_regression(data: &Dataset<(Vec<f64>, f64)>, lr: f64, epochs: usize) -> LinearModel {
    let n = data.count();
    assert!(n > 0, "empty training set");
    let dim = data.collect()[0].0.len();
    let mut weights = vec![0.0f64; dim];
    let mut bias = 0.0f64;
    for _ in 0..epochs {
        let w = weights.clone();
        let b = bias;
        let (gw, gb) = data
            .map(move |(x, y)| {
                let err = b + w.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() - y;
                let gw: Vec<f64> = x.iter().map(|v| err * v).collect();
                (gw, err)
            })
            .reduce((vec![0.0; dim], 0.0), |(mut ga, ba), (gb, bb)| {
                for (a, b) in ga.iter_mut().zip(&gb) {
                    *a += b;
                }
                (ga, ba + bb)
            });
        for (w, g) in weights.iter_mut().zip(&gw) {
            *w -= 2.0 * lr * g / n as f64;
        }
        bias -= 2.0 * lr * gb / n as f64;
    }
    LinearModel { weights, bias }
}

/// Per-feature standardization fitted on a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    /// Feature means.
    pub means: Vec<f64>,
    /// Feature standard deviations (floored).
    pub stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits on a dataset of feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset<Vec<f64>>) -> Self {
        let n = data.count();
        assert!(n > 0, "empty dataset");
        let dim = data.collect()[0].len();
        let (sum, sum_sq) = data
            .map(|x| {
                let sq: Vec<f64> = x.iter().map(|v| v * v).collect();
                (x.clone(), sq)
            })
            .reduce(
                (vec![0.0; dim], vec![0.0; dim]),
                |(mut sa, mut qa), (sb, qb)| {
                    for (a, b) in sa.iter_mut().zip(&sb) {
                        *a += b;
                    }
                    for (a, b) in qa.iter_mut().zip(&qb) {
                        *a += b;
                    }
                    (sa, qa)
                },
            );
        let means: Vec<f64> = sum.iter().map(|s| s / n as f64).collect();
        let stds: Vec<f64> = sum_sq
            .iter()
            .zip(&means)
            .map(|(q, m)| ((q / n as f64 - m * m).max(1e-12)).sqrt())
            .collect();
        StandardScaler { means, stds }
    }

    /// Standardizes one vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    use proptest::prelude::*;
    use scneural::exec::ExecCtx;
    use scpar::ScparConfig;

    use super::*;

    fn blobs(n_per: usize, centers: &[(f64, f64)], seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SeededRng::new(seed);
        let mut out = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..n_per {
                out.push(vec![rng.gaussian(cx, 0.3), rng.gaussian(cy, 0.3)]);
            }
        }
        out
    }

    #[test]
    fn kmeans_recovers_centers() {
        let pts = blobs(50, &[(0.0, 0.0), (5.0, 5.0), (0.0, 5.0)], 1);
        let ds = Dataset::from_vec(pts, 4);
        let model = kmeans(&ds, 3, 50, 2);
        // Every true center is close to a learned centroid.
        for (cx, cy) in [(0.0, 0.0), (5.0, 5.0), (0.0, 5.0)] {
            let min = model
                .centroids
                .iter()
                .map(|c| sq_dist(c, &[cx, cy]))
                .fold(f64::INFINITY, f64::min);
            assert!(min < 0.25, "center ({cx},{cy}) missed: {min}");
        }
    }

    #[test]
    fn kmeans_inertia_decreases_with_k() {
        let pts = blobs(40, &[(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)], 3);
        let ds = Dataset::from_vec(pts, 4);
        let i1 = kmeans(&ds, 1, 30, 4).inertia;
        let i2 = kmeans(&ds, 2, 30, 4).inertia;
        let i4 = kmeans(&ds, 4, 30, 4).inertia;
        assert!(i1 > i2 && i2 > i4, "{i1} > {i2} > {i4}");
    }

    #[test]
    fn kmeans_predict_assigns_nearest() {
        let pts = blobs(30, &[(0.0, 0.0), (10.0, 10.0)], 5);
        let ds = Dataset::from_vec(pts, 2);
        let model = kmeans(&ds, 2, 30, 6);
        let a = model.predict(&[0.1, 0.1]);
        let b = model.predict(&[9.9, 9.9]);
        assert_ne!(a, b);
    }

    #[test]
    fn kmeans_uses_shuffles() {
        let pts = blobs(20, &[(0.0, 0.0), (5.0, 5.0)], 7);
        let ds = Dataset::from_vec(pts, 2);
        let _ = kmeans(&ds, 2, 10, 8);
        assert!(ds.stats().shuffle_stages > 0, "centroid updates shuffle");
    }

    #[test]
    fn kmeans_par_recovers_centers() {
        let pts = blobs(50, &[(0.0, 0.0), (5.0, 5.0), (0.0, 5.0)], 1);
        let model = kmeans_ctx(
            &pts,
            3,
            50,
            2,
            &ExecCtx::serial().with_par(ScparConfig::with_threads(4)),
        );
        for (cx, cy) in [(0.0, 0.0), (5.0, 5.0), (0.0, 5.0)] {
            let min = model
                .centroids
                .iter()
                .map(|c| sq_dist(c, &[cx, cy]))
                .fold(f64::INFINITY, f64::min);
            assert!(min < 0.25, "center ({cx},{cy}) missed: {min}");
        }
    }

    #[test]
    fn kmeans_par_is_thread_count_independent() {
        let pts = blobs(200, &[(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)], 13);
        let serial = kmeans_ctx(&pts, 3, 40, 14, &ExecCtx::serial());
        for threads in [2, 8] {
            let par = kmeans_ctx(
                &pts,
                3,
                40,
                14,
                &ExecCtx::serial().with_par(ScparConfig::with_threads(threads)),
            );
            assert_eq!(par.iterations, serial.iterations);
            assert_eq!(par.inertia.to_bits(), serial.inertia.to_bits());
            for (a, b) in serial.centroids.iter().zip(&par.centroids) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn linear_fits_line() {
        // y = 3x + 1
        let data: Vec<(Vec<f64>, f64)> = (0..50)
            .map(|i| (vec![i as f64 / 10.0], 3.0 * i as f64 / 10.0 + 1.0))
            .collect();
        let ds = Dataset::from_vec(data, 3);
        let model = linear_regression(&ds, 0.05, 2000);
        assert!(
            (model.weights[0] - 3.0).abs() < 0.1,
            "w {}",
            model.weights[0]
        );
        assert!((model.bias - 1.0).abs() < 0.3, "b {}", model.bias);
    }

    #[test]
    fn scaler_standardizes() {
        let data = vec![vec![1.0, 100.0], vec![2.0, 200.0], vec![3.0, 300.0]];
        let ds = Dataset::from_vec(data.clone(), 2);
        let scaler = StandardScaler::fit(&ds);
        let transformed: Vec<Vec<f64>> = data.iter().map(|x| scaler.transform(x)).collect();
        for j in 0..2 {
            let mean: f64 = transformed.iter().map(|x| x[j]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn kmeans_rejects_bad_k() {
        let ds = Dataset::from_vec(vec![vec![0.0]], 1);
        let _ = kmeans(&ds, 2, 5, 0);
    }

    #[derive(Default)]
    struct WorkSink(Mutex<BTreeMap<String, WorkDelta>>);

    impl sctelemetry::Recorder for WorkSink {
        fn record_work(&self, kernel: &str, work: WorkDelta) {
            *self
                .0
                .lock()
                .unwrap()
                .entry(kernel.to_string())
                .or_default() += work;
        }
    }

    #[test]
    fn kmeans_ctx_records_thread_invariant_work() {
        let pts = blobs(100, &[(0.0, 0.0), (6.0, 6.0)], 21);
        let collect = |threads: Option<usize>| {
            let sink = Arc::new(WorkSink::default());
            let handle = sctelemetry::TelemetryHandle::new(sink.clone());
            let cfg = match threads {
                None => ScparConfig::serial(),
                Some(t) => ScparConfig::with_threads(t),
            };
            let ctx = ExecCtx::serial().with_par(cfg).with_telemetry(handle);
            let model = kmeans_ctx(&pts, 2, 30, 22, &ctx);
            let work = sink.0.lock().unwrap().clone();
            (model, work)
        };
        let (serial_model, serial_work) = collect(None);
        assert!(serial_work.contains_key(KERNEL_KMEANS_ASSIGN));
        assert!(serial_work.contains_key(KERNEL_KMEANS_UPDATE));
        // Assignment covers every point each iteration plus the inertia pass.
        let assign = &serial_work[KERNEL_KMEANS_ASSIGN];
        assert_eq!(
            assign.items,
            (serial_model.iterations as u64 + 1) * pts.len() as u64
        );
        for threads in [2, 8] {
            let (model, work) = collect(Some(threads));
            assert_eq!(model, serial_model);
            assert_eq!(work, serial_work, "{threads} threads");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// How many cells one task takes is invisible in the model: the
        /// per-cell fold fixes the reduction tree, so any positive
        /// `cells_per_task` on any pool gives the serial bits.
        #[test]
        fn any_cells_per_task_gives_the_serial_model(
            n in 8usize..1200,
            pick in any::<usize>(),
            threads in 2usize..9,
            seed in any::<u64>(),
        ) {
            let cells = n.div_ceil(KMEANS_CHUNK_POINTS);
            let cells_per_task = 1 + pick % (cells + 1);
            let mut rng = SeededRng::new(seed);
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.next_f64() - 0.5).collect())
                .collect();
            let serial = kmeans_ctx(&pts, 4, 6, seed, &ExecCtx::serial());
            let ctx = ExecCtx::serial().with_par(ScparConfig::with_threads(threads));
            let tasked = kmeans_cells(&pts, 4, 6, seed, &ctx, cells_per_task);
            prop_assert_eq!(tasked.iterations, serial.iterations);
            let bits = |m: &KMeansModel| {
                let flat = m.centroids.iter().flatten().chain([&m.inertia]);
                flat.map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&tasked), bits(&serial), "cells_per_task {}", cells_per_task);
        }
    }
}
