//! # scpar — deterministic parallel runtime for the smart-city stack
//!
//! The paper's four-tier fog model exists because one machine cannot keep up
//! with city-scale load; this crate is the shared-memory half of that
//! argument. A fan-out is per-call: [`par_map_chunks`] spawns up to the
//! configured number ([`ScparConfig`]) of scoped `std::thread` workers, feeds them chunk
//! indices over a `crossbeam` channel and joins them before it returns —
//! nothing is parked between calls. One contract is non-negotiable:
//!
//! > **Determinism.** For a given input and seed, every thread count — 1, 2,
//! > 8, 64 — produces byte-identical outputs and byte-identical telemetry
//! > snapshots.
//!
//! Two rules make that hold:
//!
//! 1. **What a result can observe depends on the input only; how much of it
//!    one task takes is the pool's business.** Reduction cells and
//!    accounting panels — anything whose boundaries reach an output bit or
//!    a telemetry counter — are fixed by the input, never by the thread
//!    count. Independent units (output rows, batch rows, whole cells) can
//!    be grouped into tasks freely, because a boundary between them cannot
//!    be seen in the result: [`ScparConfig::task_size`] gives each worker
//!    at most one task, and [`par_map`] chunks by worker count for the
//!    same reason.
//! 2. **Results are combined in submission order.** [`par_map_chunks`]
//!    returns chunk results indexed by chunk, so a caller folding the
//!    partials left-to-right always folds them in chunk order.
//!    Floating-point accumulation is non-associative, so this ordering —
//!    not just "all results present" — is what makes `f32`/`f64`
//!    reductions bit-stable across thread counts.
//!
//! The pool size comes from [`ScparConfig`]: explicit via
//! [`ScparConfig::with_threads`], or ambient via [`ScparConfig::from_env`]
//! which honours the `SCPAR_THREADS` environment variable and falls back to
//! [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! use scpar::{par_map_chunks, ScparConfig};
//!
//! let xs: Vec<f64> = (0..10_000).map(|i| 1.0 / (1.0 + i as f64)).collect();
//! let sum = |cfg: &ScparConfig| -> f64 {
//!     par_map_chunks(cfg, &xs, 256, |_ci, chunk| chunk.iter().sum::<f64>())
//!         .into_iter()
//!         .sum()
//! };
//! let serial = sum(&ScparConfig::serial());
//! let parallel = sum(&ScparConfig::with_threads(8));
//! assert_eq!(serial, parallel); // bit-identical, not merely close
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crossbeam::channel;

/// Environment variable that overrides the default worker count used by
/// [`ScparConfig::from_env`].
const THREADS_ENV: &str = "SCPAR_THREADS";

/// Worker-pool configuration threaded through the stack's run APIs.
///
/// The thread count only controls *how fast* work finishes, never *what* the
/// result is — see the crate docs for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScparConfig {
    threads: usize,
}

impl ScparConfig {
    /// A single-threaded configuration: every combinator runs inline on the
    /// calling thread.
    pub fn serial() -> Self {
        ScparConfig { threads: 1 }
    }

    /// A configuration with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ScparConfig {
            threads: threads.max(1),
        }
    }

    /// Reads the ambient configuration: `SCPAR_THREADS` if set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        let from_var = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let threads = from_var.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        ScparConfig { threads }
    }

    /// Whether parallel combinators will actually spawn workers.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Units per task when `units` independent work units fan out on this
    /// pool: `max(granule, ⌈units / threads⌉)`, and at least 1 so an empty
    /// input still yields a valid [`par_map_chunks`] chunk size.
    ///
    /// That is at most one task per worker — the busiest worker cannot do
    /// fewer units or fewer dispatches — and never a task finer than
    /// `granule`, the size below which a caller does not fan out at all.
    /// The answer depends on the thread count, so use it only where task
    /// boundaries cannot reach the result (rule 1 of the crate docs).
    pub fn task_size(&self, units: usize, granule: usize) -> usize {
        units.div_ceil(self.threads).max(granule).max(1)
    }
}

impl Default for ScparConfig {
    /// Equivalent to [`ScparConfig::from_env`].
    fn default() -> Self {
        ScparConfig::from_env()
    }
}

/// Runs `f` inside a scope in which borrowed threads can be spawned,
/// propagating any worker panic to the caller — `crossbeam::thread::scope`
/// with the `Result` unwrapped, for [`par_map_chunks`]' per-call pool.
fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&crossbeam::thread::Scope<'scope, 'env>) -> R,
{
    match crossbeam::thread::scope(f) {
        Ok(r) => r,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Number of chunks of size `chunk` needed to cover `len` items.
///
/// # Panics
///
/// Panics if `chunk` is zero.
fn chunk_count(len: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk size must be positive");
    len.div_ceil(chunk)
}

/// Maps fixed-size chunks of `items` through `f` on the worker pool,
/// returning one result per chunk **in chunk order**.
///
/// `f` receives `(chunk_index, chunk_slice)`; chunk `ci` covers
/// `items[ci * chunk .. min((ci + 1) * chunk, len)]`. Because the chunk
/// boundaries depend only on `items.len()` and `chunk`, and the returned
/// `Vec` is ordered by chunk index, the output is identical for any thread
/// count — including the inline serial path taken when `cfg` has one thread
/// or there is at most one chunk.
///
/// # Panics
///
/// Panics if `chunk` is zero, or propagates the panic if `f` panics on any
/// worker.
pub fn par_map_chunks<T, R, F>(cfg: &ScparConfig, items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let n_chunks = chunk_count(items.len(), chunk);
    let workers = cfg.threads.min(n_chunks);
    if workers <= 1 {
        return (0..n_chunks)
            .map(|ci| {
                let start = ci * chunk;
                let end = (start + chunk).min(items.len());
                f(ci, &items[start..end])
            })
            .collect();
    }

    // Per-call pool: `workers` scoped threads drain a shared job queue of
    // chunk indices and send `(chunk_index, result)` back; the caller
    // reassembles by index, so arrival order is irrelevant.
    let (job_tx, job_rx) = channel::unbounded::<usize>();
    for ci in 0..n_chunks {
        job_tx.send(ci).expect("receiver alive");
    }
    drop(job_tx);
    let (res_tx, res_rx) = channel::unbounded::<(usize, R)>();

    let mut slots: Vec<Option<R>> = scope(|s| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let f = &f;
            s.spawn(move |_| {
                while let Ok(ci) = job_rx.recv() {
                    let start = ci * chunk;
                    let end = (start + chunk).min(items.len());
                    let r = f(ci, &items[start..end]);
                    if res_tx.send((ci, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
        let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
        // Ends when every worker dropped its sender (finished or panicked);
        // a worker panic leaves a hole here and then propagates via `scope`.
        while let Ok((ci, r)) = res_rx.recv() {
            slots[ci] = Some(r);
        }
        slots
    });

    slots
        .iter_mut()
        .map(|s| s.take().expect("worker panics propagate before this"))
        .collect()
}

/// Maps every item of `items` through `f` on the worker pool, preserving
/// item order.
///
/// Unlike [`par_map_chunks`], the internal chunking here is free to consider
/// the worker count, because the output is per-*item*: chunk boundaries
/// cannot be observed in the result, so determinism holds regardless.
pub fn par_map<T, R, F>(cfg: &ScparConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    // Aim for a few chunks per worker so stragglers rebalance.
    let chunk = items.len().div_ceil(cfg.threads * 4).max(1);
    let chunked = par_map_chunks(cfg, items, chunk, |_ci, part| {
        part.iter().map(&f).collect::<Vec<R>>()
    });
    chunked.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_reports() {
        assert_eq!(ScparConfig::with_threads(0).threads, 1);
        assert_eq!(ScparConfig::with_threads(6).threads, 6);
        assert!(!ScparConfig::serial().is_parallel());
        assert!(ScparConfig::with_threads(2).is_parallel());
    }

    #[test]
    fn chunk_count_covers_all() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(7, 4), 2);
        assert_eq!(chunk_count(8, 4), 2);
        assert_eq!(chunk_count(9, 4), 3);
    }

    #[test]
    fn map_chunks_results_in_chunk_order() {
        let items: Vec<u32> = (0..103).collect();
        for threads in [1, 2, 4, 8] {
            let cfg = ScparConfig::with_threads(threads);
            let got = par_map_chunks(&cfg, &items, 10, |ci, part| (ci, part.to_vec()));
            assert_eq!(got.len(), 11);
            for (i, (ci, part)) in got.iter().enumerate() {
                assert_eq!(*ci, i);
                assert_eq!(part[0], (i * 10) as u32);
            }
            assert_eq!(got[10].1.len(), 3, "tail chunk is short");
        }
    }

    #[test]
    fn task_size_gives_each_worker_at_most_one_task() {
        for granule in [1usize, 32, 256] {
            for threads in [1usize, 2, 3, 7, 8, 64] {
                let cfg = ScparConfig::with_threads(threads);
                let tg = threads * granule;
                for units in [0, 1, granule, granule + 1, tg - 1, tg, tg + 1] {
                    let task = cfg.task_size(units, granule);
                    assert!(task >= granule.max(1), "{units} units, {threads} threads");
                    assert!(chunk_count(units, task) <= threads);
                    let items: Vec<usize> = (0..units).collect();
                    let tasks = par_map_chunks(&cfg, &items, task, |_ci, part| part.to_vec());
                    if let Some((_last, full)) = tasks.split_last() {
                        assert!(full.iter().all(|t| t.len() == task));
                    }
                    assert_eq!(tasks.concat(), items, "tasks cover 0..{units} exactly");
                }
            }
        }
    }

    #[test]
    fn inputs_within_one_granule_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [2usize, 8, 64] {
            let cfg = ScparConfig::with_threads(threads);
            for units in [0usize, 1, 32] {
                let items = vec![0u8; units];
                let ran_on =
                    par_map_chunks(&cfg, &items, cfg.task_size(units, 32), |_ci, _part| {
                        std::thread::current().id()
                    });
                assert_eq!(ran_on.len(), units.min(1));
                assert!(ran_on.iter().all(|&id| id == caller));
            }
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<i64> = (0..1000).collect();
        let cfg = ScparConfig::with_threads(4);
        let got = par_map(&cfg, &items, |&x| x * 2);
        let want: Vec<i64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scope_joins_and_returns() {
        let data = [1u64, 2, 3];
        let sum = scope(|s| {
            let h = s.spawn(|_| data.iter().sum::<u64>());
            h.join().unwrap()
        });
        assert_eq!(sum, 6);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let cfg = ScparConfig::with_threads(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_chunks(&cfg, &items, 4, |ci, _part| {
                assert!(ci != 7, "deliberate test panic");
                ci
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn from_env_default_is_positive() {
        assert!(ScparConfig::from_env().threads >= 1);
    }
}
